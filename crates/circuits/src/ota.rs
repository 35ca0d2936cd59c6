//! The two-stage folded-cascode OTA of paper Fig. 2 / Table I / Eq. 9.
//!
//! Topology (reconstructed from the schematic; exact device-to-label
//! mapping in the figure is ambiguous, the structure below is the standard
//! fully differential two-stage folded-cascode it depicts):
//!
//! - **Stage 1**: PMOS input pair (`W1/L1`, ×N1) with PMOS tail
//!   (`W1/L1`, ×2N1); folded branch with NMOS sinks (`W3/L3`, ×(N1+N2))
//!   gated by the CMFB voltage, NMOS cascodes (`W2/L2`, ×N2), PMOS
//!   cascodes (`W5/L5`, ×N2) and PMOS current sources (`W4/L4`, ×N2).
//! - **Stage 2**: class-A common-source NMOS drivers (`W6/L6`, ×N9) with
//!   PMOS current-source loads (`W7/L7`, ×N8), Miller-compensated with
//!   `MCAP`; each output carries a `Cf` load capacitor.
//! - **CMFB**: resistive output-CM sensing into a 5-transistor OTA that
//!   drives the stage-1 sink gates.
//! - **Bias**: diode-connected mirror branches from a fixed 10 µA
//!   reference generate `vbp1`, `vbp2`, `vbn2` and the CMFB tail bias.
//!
//! The sizing problem is exactly Table I: 20 design variables
//! (`L1..L7`, `W1..W7`, `N1, N2, N8, N9`, `MCAP`, `Cf`) and Eq. 9's
//! constraint set — 10 performance constraints plus 19 per-device
//! saturation-region constraints (29 total).
//!
//! Measurements per evaluation: DC operating point (power, margins,
//! swing), one AC sweep under three excitations (differential,
//! common-mode, supply), and, on the closed-loop (gain −1) testbench, a
//! noise integration and a step transient for settling time and static
//! error, both from one operating point.

use opt::{AnalysisSpec, Fom, SizingProblem};
use spice::{Circuit, OpPoint, SimOptions, SpiceError, Waveform, GND};

use crate::measure::{self, at_least, at_most};
use crate::mesh;
use crate::tech::{tech_180nm, Corner, CornerPlanes, CornerSet, Technology};

/// Decoded design parameters (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct OtaParams {
    /// Channel lengths `L1..L7` \[m\].
    pub l: [f64; 7],
    /// Channel widths `W1..W7` \[m\].
    pub w: [f64; 7],
    /// Multipliers `N1, N2, N8, N9` (integers ≥ 1).
    pub n1: f64,
    /// Multiplier `N2`.
    pub n2: f64,
    /// Multiplier `N8`.
    pub n8: f64,
    /// Multiplier `N9`.
    pub n9: f64,
    /// Miller compensation capacitor \[F\].
    pub mcap: f64,
    /// Output load / feedback capacitor \[F\].
    pub cf: f64,
}

impl OtaParams {
    /// Decodes a raw design vector in Table I ordering
    /// (`L1..L7, W1..W7, N1, N2, N8, N9, MCAP, Cf`), rounding the
    /// multipliers to integers.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 20`.
    pub fn decode(x: &[f64]) -> Self {
        assert_eq!(x.len(), 20, "OTA design vector has 20 entries");
        let mut l = [0.0; 7];
        let mut w = [0.0; 7];
        l.copy_from_slice(&x[0..7]);
        w.copy_from_slice(&x[7..14]);
        OtaParams {
            l,
            w,
            n1: x[14].round().max(1.0),
            n2: x[15].round().max(1.0),
            n8: x[16].round().max(1.0),
            n9: x[17].round().max(1.0),
            mcap: x[18],
            cf: x[19],
        }
    }
}

/// Names of the 19 saturation-checked devices (per Eq. 9's region list).
const SAT_DEVICES: [&str; 19] = [
    "M_inP",
    "M_inN",
    "M_tail",
    "MP_srcL",
    "MP_srcR",
    "MP_casL",
    "MP_casR",
    "MN_casL",
    "MN_casR",
    "MN_snkL",
    "MN_snkR",
    "MN_drvL",
    "MN_drvR",
    "MP_ld2L",
    "MP_ld2R",
    "M_cmfbA",
    "M_cmfbB",
    "M_cmfbTail",
    "M_cmfbInj",
];

/// The folded-cascode OTA sizing problem (paper Table I / Eq. 9).
///
/// # Example
///
/// ```no_run
/// use circuits::FoldedCascodeOta;
/// use opt::SizingProblem;
///
/// let ota = FoldedCascodeOta::new();
/// let x = ota.nominal();
/// let spec = ota.evaluate(&x);
/// println!("power = {} W, feasible = {}", spec.objective, spec.feasible());
/// ```
#[derive(Debug, Clone)]
pub struct FoldedCascodeOta {
    tech: Technology,
    opts: SimOptions,
    /// Input/output common-mode voltage \[V\] (tracks the corner supply).
    vcm: f64,
    /// Bias reference current \[A\].
    iref: f64,
    /// Prebuilt open-loop testbench topology; per-candidate evaluation
    /// clones it and re-sizes every device in place (no netlist rebuild,
    /// no node-map re-derivation — and an unchanged topology fingerprint,
    /// so pooled solver state carries across candidates *and* corners).
    template_open: Circuit,
    /// Output node ids `(out_p, out_n)` of the open-loop template.
    open_outs: (usize, usize),
    /// Prebuilt closed-loop (gain −1 step) testbench topology.
    template_closed: Circuit,
    /// Output node ids `(out_p, out_n)` of the closed-loop template.
    closed_outs: (usize, usize),
    /// The PVT scenario plane this instance evaluates across, with the
    /// fully-built planes of corners 1.. (derated technology,
    /// corner-temperature options, corner-retargeted templates).
    planes: CornerPlanes<FoldedCascodeOta>,
    /// Distributed-parasitic configuration when this is a post-layout
    /// plane: the templates carry per-node RC ladders and every resize
    /// refreshes their capacitance shares.
    post_layout: Option<mesh::PostLayoutConfig>,
}

impl Default for FoldedCascodeOta {
    fn default() -> Self {
        Self::new()
    }
}

impl FoldedCascodeOta {
    /// Creates the problem on the generic 180nm-class technology at the
    /// nominal corner only (the legacy single-scenario plane).
    pub fn new() -> Self {
        Self::with_corners(CornerSet::nominal())
    }

    /// Creates the problem evaluating every candidate across a PVT corner
    /// set: one fully-built testbench plane per corner (derated model
    /// cards via [`Technology::at_corner`], supply and common-mode scaled
    /// by the corner, corner temperature in the simulator options).
    /// [`SizingProblem::evaluate`] is then the worst case over the plane;
    /// corner 0 of every standard set is nominal and bit-identical to
    /// [`FoldedCascodeOta::new`].
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or a template fails to build.
    pub fn with_corners(corners: CornerSet) -> Self {
        let (mut base, planes) = CornerPlanes::build(corners, Self::build_plane);
        base.planes = planes;
        base
    }

    /// Creates the *post-layout* variant of the problem: both testbench
    /// templates carry distributed parasitic RC ladders on every node (the
    /// extraction-style mesh of [`crate::mesh`]), pushing the MNA systems
    /// from n ≈ 60 pre-layout to several hundred unknowns, solved by the
    /// sparse LU in `linalg`. Per-candidate resizes refresh the
    /// ladder capacitance shares in place, so the topology fingerprint
    /// (and thus the pooled solver state) is still shared across
    /// candidates. Nominal corner only.
    ///
    /// # Panics
    ///
    /// Panics if a template fails to build or mesh.
    pub fn post_layout() -> Self {
        Self::with_post_layout(mesh::PostLayoutConfig::default())
    }

    /// [`FoldedCascodeOta::post_layout`] with an explicit mesh
    /// configuration (segment count / segment resistance / estimator
    /// coefficients).
    ///
    /// # Panics
    ///
    /// Panics if a template fails to build or mesh.
    pub fn with_post_layout(cfg: mesh::PostLayoutConfig) -> Self {
        let mut ota = Self::new();
        mesh::apply_post_layout(&mut ota.template_open, &cfg)
            .expect("open-loop template must mesh");
        mesh::apply_post_layout(&mut ota.template_closed, &cfg)
            .expect("closed-loop template must mesh");
        ota.post_layout = Some(cfg);
        // Re-run the nominal resize through the post-layout path so the
        // templates' ladder shares start consistent with their geometry.
        let p = OtaParams::decode(&ota.nominal());
        let mut open = std::mem::replace(&mut ota.template_open, Circuit::new());
        ota.resize(&mut open, &p).expect("meshed open-loop resize");
        ota.template_open = open;
        let mut closed = std::mem::replace(&mut ota.template_closed, Circuit::new());
        ota.resize(&mut closed, &p)
            .expect("meshed closed-loop resize");
        ota.template_closed = closed;
        ota
    }

    /// Builds one single-corner evaluation plane.
    fn build_plane(corner: &Corner) -> FoldedCascodeOta {
        // Non-nominal corners shift every bias point tens of millivolts
        // and mobility by ±40%; the closed-loop testbench needs gentler
        // Newton steps (and more of them) to settle there. The nominal
        // plane keeps the legacy options so its results stay bit-identical
        // to the pre-corner engine.
        let base = if corner.is_nominal() {
            SimOptions {
                max_nr_iters: 200,
                ..Default::default()
            }
        } else {
            SimOptions {
                max_nr_iters: 800,
                v_limit: 0.35,
                ..Default::default()
            }
        };
        let opts = corner.options(&base);
        let mut ota = FoldedCascodeOta {
            tech: tech_180nm().at_corner(corner),
            opts,
            vcm: 0.9 * corner.vdd_scale,
            iref: 10e-6,
            template_open: Circuit::new(),
            open_outs: (0, 0),
            template_closed: Circuit::new(),
            closed_outs: (0, 0),
            planes: CornerPlanes::default(),
            post_layout: None,
        };
        let (open, op_, on_) = ota
            .build_open_topology()
            .expect("OTA open-loop template must build");
        ota.template_open = open;
        ota.open_outs = (op_, on_);
        let (closed, cp, cn) = ota
            .build_closed_topology()
            .expect("OTA closed-loop template must build");
        ota.template_closed = closed;
        ota.closed_outs = (cp, cn);
        ota
    }

    /// A hand-tuned design that meets (or closely approaches) every Eq. 9
    /// constraint — the regression anchor for the evaluation pipeline.
    pub fn nominal(&self) -> Vec<f64> {
        let u = 1e-6;
        let f = 1e-15;
        vec![
            // L1..L7
            0.5 * u,
            0.35 * u,
            0.5 * u,
            0.4 * u,
            0.35 * u,
            0.5 * u,
            0.4 * u,
            // W1..W7
            30.0 * u,
            30.0 * u,
            40.0 * u,
            40.0 * u,
            40.0 * u,
            5.0 * u,
            60.0 * u,
            // N1, N2, N8, N9
            8.0,
            4.0,
            8.0,
            6.0,
            // MCAP, Cf
            2000.0 * f,
            300.0 * f,
        ]
    }

    /// Builds the amplifier-core *topology* into `ckt` with placeholder
    /// geometry — every design-dependent value is written exclusively by
    /// [`FoldedCascodeOta::resize`]. Returns the key node ids:
    /// `(inp, inn, out_p, out_n)`.
    fn build_core(&self, ckt: &mut Circuit) -> Result<(usize, usize, usize, usize), SpiceError> {
        let u = 1e-6;
        let f = 1e-15;
        let t = &self.tech;
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd))?;

        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let tail = ckt.node("tail");
        let fold_l = ckt.node("fold_l");
        let fold_r = ckt.node("fold_r");
        let srcp_l = ckt.node("srcp_l");
        let srcp_r = ckt.node("srcp_r");
        let out1_l = ckt.node("out1_l");
        let out1_r = ckt.node("out1_r");
        let out_p = ckt.node("out_p"); // second stage on the L (inp) side
        let out_n = ckt.node("out_n");
        let vsense = ckt.node("vsense");
        let vbp1 = ckt.node("vbp1");
        let vbp2 = ckt.node("vbp2");
        let vbn2 = ckt.node("vbn2");
        let vbn = ckt.node("vbn");

        // ---- Bias generator (fixed 10 µA reference branches).
        // vbp1: PMOS mirror gate.
        ckt.add_mosfet("MB_p1", vbp1, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_isource("IB1", vbp1, GND, Waveform::Dc(self.iref))?;
        // vbp2: two stacked PMOS diodes (cascode gate level).
        let midp = ckt.node("bias_midp");
        ckt.add_mosfet("MB_p2a", midp, midp, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("MB_p2b", vbp2, vbp2, midp, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_isource("IB2", vbp2, GND, Waveform::Dc(self.iref))?;
        // vbn2: two stacked NMOS diodes (vbn2 ≈ 2·vgs).
        let midn = ckt.node("bias_midn");
        ckt.add_mosfet("MB_n2a", midn, midn, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MB_n2b", vbn2, vbn2, midn, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_isource("IB3", vdd, vbn2, Waveform::Dc(self.iref))?;
        // vbn: NMOS mirror gate for the CMFB tail.
        ckt.add_mosfet("MB_n1", vbn, vbn, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_isource("IB4", vdd, vbn, Waveform::Dc(self.iref))?;

        // ---- Stage 1: PMOS-input folded cascode.
        ckt.add_mosfet("M_tail", tail, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_inP", fold_l, inp, tail, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_inN", fold_r, inn, tail, vdd, &t.pmos, u, u, 1.0)?;
        // Top PMOS current sources and cascodes.
        ckt.add_mosfet("MP_srcL", srcp_l, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("MP_srcR", srcp_r, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("MP_casL", out1_l, vbp2, srcp_l, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("MP_casR", out1_r, vbp2, srcp_r, vdd, &t.pmos, u, u, 1.0)?;
        // Bottom NMOS cascodes and mirror-biased sinks (gate vbn_snk comes
        // from the replica + CMFB-injection branch below).
        let vbn_snk = ckt.node("vbn_snk");
        ckt.add_mosfet("MN_casL", out1_l, vbn2, fold_l, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MN_casR", out1_r, vbn2, fold_r, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MN_snkL", fold_l, vbn_snk, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MN_snkR", fold_r, vbn_snk, GND, GND, &t.nmos, u, u, 1.0)?;

        // ---- Stage 2 (inverting common source per side):
        // left first-stage output drives the *P* output.
        ckt.add_mosfet("MN_drvL", out_p, out1_l, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MN_drvR", out_n, out1_r, GND, GND, &t.nmos, u, u, 1.0)?;
        ckt.add_mosfet("MP_ld2L", out_p, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("MP_ld2R", out_n, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        // Miller compensation with a fixed 2 kΩ nulling resistor (pushes
        // the right-half-plane zero into the left half plane for any
        // second-stage gm above ~0.5 mS) and output loads.
        let zc_l = ckt.node("zc_l");
        let zc_r = ckt.node("zc_r");
        ckt.add_resistor("RZ_L", out1_l, zc_l, 2e3)?;
        ckt.add_capacitor("CC_L", zc_l, out_p, 100.0 * f)?;
        ckt.add_resistor("RZ_R", out1_r, zc_r, 2e3)?;
        ckt.add_capacitor("CC_R", zc_r, out_n, 100.0 * f)?;
        ckt.add_capacitor("CL_P", out_p, GND, 100.0 * f)?;
        ckt.add_capacitor("CL_N", out_n, GND, 100.0 * f)?;

        // ---- Sink bias: replica mirror + current-injection CMFB.
        //
        // A voltage-mode CMFB driving the sink gates directly latches up:
        // when it rails, the sinks overpull by orders of magnitude, the
        // first stage inverts its common-mode sign (top sources in triode)
        // and the loop sticks at the rail. The textbook fix implemented
        // here bounds the CMFB authority by *current*: the sink gate
        // voltage comes from a diode branch carrying (a) a replica of
        // ~90% of the nominal branch current, mirrored with the same
        // geometry ratios as the signal path, plus (b) the tail-limited
        // output current of the CMFB error amplifier.
        // (a) Replica: 0.95·I_src per branch. Deliberately *excludes* the
        // input-pair share: if the pair ever cuts off (e.g. the input CM
        // runs away in a feedback testbench), the commanded sink current
        // must stay below what the top sources can deliver, otherwise the
        // first stage latches with the folds on the ground rail. The CMFB
        // injection below makes up the input-pair share at balance.
        ckt.add_mosfet("M_repSrc", vbn_snk, vbp1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        // Sink-bias diode, same geometry and multiplier as each sink.
        ckt.add_mosfet("M_snkDio", vbn_snk, vbn_snk, GND, GND, &t.nmos, u, u, 1.0)?;
        // (b) CMFB error amp: NMOS pair comparing the sensed output CM with
        // VREF; the VREF-side current is mirrored into the diode branch, so
        // the correction is bounded by the CMFB tail current.
        ckt.add_resistor("R_snsP", out_p, vsense, 400e3)?;
        ckt.add_resistor("R_snsN", out_n, vsense, 400e3)?;
        let vref = ckt.node("vref");
        ckt.add_vsource("VREF", vref, GND, Waveform::Dc(self.vcm))?;
        let cm_tail = ckt.node("cm_tail");
        let cm_d1 = ckt.node("cm_d1");
        ckt.add_mosfet("M_cmfbTail", cm_tail, vbn, GND, GND, &t.nmos, u, u, 1.0)?;
        // vsense down => more current in the VREF-side device? No: the
        // sense-side device steals tail current as vsense rises, so the
        // VREF-side current *falls* with rising output CM — injected into
        // the sink diode this lowers the sink current and lets the outputs
        // come back down through the two inverting stages.
        ckt.add_mosfet("M_cmfbA", cm_d1, vref, cm_tail, GND, &t.nmos, u, u, 1.0)?;
        let cm_dump = ckt.node("cm_dump");
        ckt.add_mosfet("M_cmfbB", cm_dump, vsense, cm_tail, GND, &t.nmos, u, u, 1.0)?;
        // Dump side terminates in a diode so the device stays biased.
        ckt.add_mosfet("M_cmfbDump", cm_dump, cm_dump, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_cmfbMirD", cm_d1, cm_d1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        ckt.add_mosfet("M_cmfbInj", vbn_snk, cm_d1, vdd, vdd, &t.pmos, u, u, 1.0)?;
        // Small stabilizing cap on the sink-bias node.
        ckt.add_capacitor("C_cmfb", vbn_snk, GND, 50e-15)?;

        Ok((inp, inn, out_p, out_n))
    }

    /// Writes every Table I design-dependent device value for the decoded
    /// parameters `p` — the single source of truth for the
    /// variable→device mapping, shared by both testbench templates.
    fn resize(&self, ckt: &mut Circuit, p: &OtaParams) -> Result<(), SpiceError> {
        let snk_m = p.n1 + p.n2;
        // Bias generator.
        ckt.set_mosfet_geometry("MB_p1", p.w[3], p.l[3], 1.0)?;
        ckt.set_mosfet_geometry("MB_p2a", p.w[4], p.l[4], 2.0)?;
        ckt.set_mosfet_geometry("MB_p2b", p.w[4], p.l[4], 2.0)?;
        ckt.set_mosfet_geometry("MB_n2a", p.w[1], p.l[1], 2.0)?;
        ckt.set_mosfet_geometry("MB_n2b", p.w[1], p.l[1], 2.0)?;
        ckt.set_mosfet_geometry("MB_n1", p.w[1], p.l[1], 1.0)?;
        // Stage 1.
        ckt.set_mosfet_geometry("M_tail", p.w[0], p.l[0], 2.0 * p.n1)?;
        ckt.set_mosfet_geometry("M_inP", p.w[0], p.l[0], p.n1)?;
        ckt.set_mosfet_geometry("M_inN", p.w[0], p.l[0], p.n1)?;
        ckt.set_mosfet_geometry("MP_srcL", p.w[3], p.l[3], p.n2)?;
        ckt.set_mosfet_geometry("MP_srcR", p.w[3], p.l[3], p.n2)?;
        ckt.set_mosfet_geometry("MP_casL", p.w[4], p.l[4], p.n2)?;
        ckt.set_mosfet_geometry("MP_casR", p.w[4], p.l[4], p.n2)?;
        ckt.set_mosfet_geometry("MN_casL", p.w[1], p.l[1], p.n2)?;
        ckt.set_mosfet_geometry("MN_casR", p.w[1], p.l[1], p.n2)?;
        ckt.set_mosfet_geometry("MN_snkL", p.w[2], p.l[2], snk_m)?;
        ckt.set_mosfet_geometry("MN_snkR", p.w[2], p.l[2], snk_m)?;
        // Stage 2 and compensation.
        ckt.set_mosfet_geometry("MN_drvL", p.w[5], p.l[5], p.n9)?;
        ckt.set_mosfet_geometry("MN_drvR", p.w[5], p.l[5], p.n9)?;
        ckt.set_mosfet_geometry("MP_ld2L", p.w[6], p.l[6], p.n8)?;
        ckt.set_mosfet_geometry("MP_ld2R", p.w[6], p.l[6], p.n8)?;
        ckt.set_capacitance("CC_L", p.mcap)?;
        ckt.set_capacitance("CC_R", p.mcap)?;
        ckt.set_capacitance("CL_P", p.cf)?;
        ckt.set_capacitance("CL_N", p.cf)?;
        // Sink-bias replica and CMFB.
        ckt.set_mosfet_geometry("M_repSrc", p.w[3], p.l[3], 0.95 * p.n2)?;
        ckt.set_mosfet_geometry("M_snkDio", p.w[2], p.l[2], snk_m)?;
        ckt.set_mosfet_geometry("M_cmfbTail", p.w[1], p.l[1], 0.5 * snk_m)?;
        ckt.set_mosfet_geometry("M_cmfbA", p.w[1], p.l[1], 1.0)?;
        ckt.set_mosfet_geometry("M_cmfbB", p.w[1], p.l[1], 1.0)?;
        ckt.set_mosfet_geometry("M_cmfbDump", p.w[3], p.l[3], 1.0)?;
        ckt.set_mosfet_geometry("M_cmfbMirD", p.w[3], p.l[3], 1.0)?;
        ckt.set_mosfet_geometry("M_cmfbInj", p.w[3], p.l[3], 1.0)?;
        // Post-layout planes: geometry changed, so the distributed ladder
        // capacitance shares must follow (structure is size-independent).
        if let Some(cfg) = &self.post_layout {
            mesh::update_post_layout(ckt, cfg)?;
        }
        Ok(())
    }

    /// Builds the open-loop testbench topology (inputs driven by DC
    /// sources at VCM; AC magnitudes set later per excitation pattern).
    fn build_open_topology(&self) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = Circuit::new();
        let (inp, inn, out_p, out_n) = self.build_core(&mut ckt)?;
        ckt.add_vsource("VIP", inp, GND, Waveform::Dc(self.vcm))?;
        ckt.add_vsource("VIN", inn, GND, Waveform::Dc(self.vcm))?;
        self.resize(&mut ckt, &OtaParams::decode(&self.nominal()))?;
        Ok((ckt, out_p, out_n))
    }

    /// Instantiates the open-loop testbench for a candidate: clones the
    /// prebuilt template and re-sizes every device in place.
    fn build_open_loop(&self, p: &OtaParams) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = self.template_open.clone();
        self.resize(&mut ckt, p)?;
        Ok((ckt, self.open_outs.0, self.open_outs.1))
    }

    /// Builds the closed-loop (resistive gain −1) step-testbench topology.
    fn build_closed_topology(&self) -> Result<(Circuit, usize, usize), SpiceError> {
        let step = 0.5;
        let mut ckt = Circuit::new();
        let (inp, inn, out_p, out_n) = self.build_core(&mut ckt)?;
        let vin_p = ckt.node("vin_p");
        let vin_n = ckt.node("vin_n");
        // Cross-coupled feedback: out_p -> inn, out_n -> inp. The network
        // is kept low-impedance (5 kΩ) so its pole with the input-pair
        // gate capacitance stays far above the closed-loop bandwidth.
        ckt.add_resistor("R1P", vin_p, inn, 5e3)?;
        ckt.add_resistor("R2P", out_p, inn, 5e3)?;
        ckt.add_resistor("R1N", vin_n, inp, 5e3)?;
        ckt.add_resistor("R2N", out_n, inp, 5e3)?;
        // Differential step at 100 ns with 1 ns edges.
        ckt.add_vsource(
            "VSP",
            vin_p,
            GND,
            Waveform::pulse(
                self.vcm,
                self.vcm + step / 2.0,
                100e-9,
                1e-9,
                1e-9,
                1.0,
                f64::INFINITY,
            ),
        )?;
        ckt.add_vsource(
            "VSN",
            vin_n,
            GND,
            Waveform::pulse(
                self.vcm,
                self.vcm - step / 2.0,
                100e-9,
                1e-9,
                1e-9,
                1.0,
                f64::INFINITY,
            ),
        )?;
        self.resize(&mut ckt, &OtaParams::decode(&self.nominal()))?;
        Ok((ckt, out_p, out_n))
    }

    /// Instantiates the closed-loop testbench for a candidate: clones the
    /// prebuilt template, re-sizes every device and re-targets the step
    /// sources in place.
    fn build_closed_loop(
        &self,
        p: &OtaParams,
        step: f64,
    ) -> Result<(Circuit, usize, usize), SpiceError> {
        let mut ckt = self.template_closed.clone();
        self.resize(&mut ckt, p)?;
        ckt.set_source_wave(
            "VSP",
            Waveform::pulse(
                self.vcm,
                self.vcm + step / 2.0,
                100e-9,
                1e-9,
                1e-9,
                1.0,
                f64::INFINITY,
            ),
        )?;
        ckt.set_source_wave(
            "VSN",
            Waveform::pulse(
                self.vcm,
                self.vcm - step / 2.0,
                100e-9,
                1e-9,
                1e-9,
                1.0,
                f64::INFINITY,
            ),
        )?;
        Ok((ckt, self.closed_outs.0, self.closed_outs.1))
    }

    /// Runs one candidate's closed-loop operating point and step transient
    /// on a pooled workspace — the simulator work that dominates the
    /// closed-loop analysis (benchmark hook).
    ///
    /// # Errors
    ///
    /// Propagates netlist and simulator failures.
    #[doc(hidden)]
    pub fn closed_loop_transient(&self, x: &[f64]) -> Result<spice::TranResult, SpiceError> {
        let (cl, _, _) = self.build_closed_loop(&OtaParams::decode(x), 0.5)?;
        let mut ws = spice::lease_workspace(&cl);
        spice::transient_with_workspace(&cl, &self.opts, STEP_T_STOP, STEP_T_STEP, &mut ws)
    }

    /// Estimated differential output swing from operating-point headrooms.
    fn output_swing(&self, op: &OpPoint) -> f64 {
        let vdsat_p = op
            .mos_op("MP_ld2L")
            .map(|m| m.vdsat)
            .unwrap_or(1.0)
            .max(op.mos_op("MP_ld2R").map(|m| m.vdsat).unwrap_or(1.0));
        let vdsat_n = op
            .mos_op("MN_drvL")
            .map(|m| m.vdsat)
            .unwrap_or(1.0)
            .max(op.mos_op("MN_drvR").map(|m| m.vdsat).unwrap_or(1.0));
        2.0 * (self.tech.vdd - vdsat_p - vdsat_n).max(0.0)
    }
}

/// Closed-loop step transient window: 400 ns at a 0.5 ns base step.
const STEP_T_STOP: f64 = 400e-9;
/// Base step of the closed-loop step transient \[s\].
const STEP_T_STEP: f64 = 0.5e-9;

/// The differential, common-mode and supply excitations of the open-loop
/// AC sweep, in that order.
const OPEN_LOOP_EXCITATIONS: [&[(&str, f64)]; 3] = [
    &[("VIP", 0.5), ("VIN", -0.5)],
    &[("VIP", 1.0), ("VIN", 1.0)],
    &[("VDD", 1.0)],
];

/// Raw open-loop measurements of one design: what
/// [`FoldedCascodeOta::open_loop_analysis`] turns into constraints and
/// [`FoldedCascodeOta::report`] reports.
struct OpenLoop {
    power: f64,
    dc_gain_db: f64,
    ugf: Option<f64>,
    phase_margin: Option<f64>,
    cmrr_db: f64,
    psrr_db: f64,
    swing: f64,
    /// Saturation margin of each of [`SAT_DEVICES`] (−1 V if missing).
    margins: Vec<f64>,
}

impl OpenLoop {
    /// The worst device's saturation margin \[V\].
    fn min_margin(&self) -> f64 {
        self.margins.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

impl SizingProblem for FoldedCascodeOta {
    fn dim(&self) -> usize {
        20
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let u = 1e-6;
        let f = 1e-15;
        let mut lb = Vec::with_capacity(20);
        let mut ub = Vec::with_capacity(20);
        // L1..L7: 0.18–2 µm.
        for _ in 0..7 {
            lb.push(0.18 * u);
            ub.push(2.0 * u);
        }
        // W1..W7: 0.24–150 µm.
        for _ in 0..7 {
            lb.push(0.24 * u);
            ub.push(150.0 * u);
        }
        // N1, N2, N8, N9: 1–20.
        for _ in 0..4 {
            lb.push(1.0);
            ub.push(20.0);
        }
        // MCAP: 100–2000 fF; Cf: 100–10000 fF.
        lb.push(100.0 * f);
        ub.push(2000.0 * f);
        lb.push(100.0 * f);
        ub.push(10000.0 * f);
        (lb, ub)
    }

    fn num_constraints(&self) -> usize {
        10 + SAT_DEVICES.len()
    }

    fn name(&self) -> &str {
        "folded-cascode-ota"
    }

    fn variable_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (1..=7).map(|i| format!("L{i}")).collect();
        names.extend((1..=7).map(|i| format!("W{i}")));
        names.extend(["N1", "N2", "N8", "N9", "MCAP", "Cf"].map(String::from));
        names
    }

    fn nominal(&self) -> Vec<f64> {
        self.nominal()
    }

    /// Objective in ~[0.5, 5] mW scaled to ~[0.05, 0.5]; constraint
    /// weights 0.25 keep typical violations inside the linear band of the
    /// min/max clipping (see [`Fom`]).
    fn paper_fom(&self) -> Fom {
        Fom::new(100.0, vec![0.25; self.num_constraints()])
    }

    fn num_corners(&self) -> usize {
        self.planes.set().len()
    }

    fn corner_name(&self, k: usize) -> String {
        self.planes.set().corners[k].label()
    }

    fn num_analyses(&self) -> usize {
        2
    }

    fn analysis_name(&self, a: usize) -> String {
        match a {
            0 => "open-loop".to_string(),
            1 => "closed-loop".to_string(),
            _ => panic!("folded-cascode OTA has 2 analyses, got index {a}"),
        }
    }

    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
        // Deterministic fault-plane scope: injection decisions are a pure
        // function of (plan seed, candidate bits, corner index), identical
        // on any worker thread. Per-solve `Index` plans number the solves
        // of each analysis unit from 0.
        let _scope = spice::fault::candidate_scope(spice::fault::candidate_key(x, k as u64));
        let _tb = telemetry::span_with(telemetry::SpanId::Testbench, a as u64);
        let plane = self.planes.get(self, k);
        match a {
            0 => plane.open_loop_analysis(x),
            1 => plane.closed_loop_analysis(x),
            _ => panic!("folded-cascode OTA has 2 analyses, got index {a}"),
        }
    }
}

impl FoldedCascodeOta {
    /// Open-loop measurements: one OP, then one AC sweep under the
    /// differential, common-mode and supply excitations. A simulator error
    /// comes back with the name of the step that failed.
    fn measure_open_loop(&self, x: &[f64]) -> Result<OpenLoop, (SpiceError, &'static str)> {
        let p = OtaParams::decode(x);
        let (ol, out_p, out_n) = self.build_open_loop(&p).map_err(|e| (e, "ota netlist"))?;
        // Pooled workspaces (one per testbench topology): every candidate
        // reuses the recorded stamp→slot maps and factor storage.
        let mut ws_ol = spice::lease_workspace(&ol);
        let op = spice::op_with_workspace(&ol, &self.opts, None, &mut ws_ol)
            .map_err(|e| (e, "ota op"))?;

        // Power: total supply current × VDD (battery current is negative).
        let i_vdd = -op
            .source_current(&ol, "VDD")
            .map_err(|e| (e, "ota power"))?;
        // Bias reference branches that terminate at ideal sources also draw
        // from VDD in a real implementation; IB1/IB2 sink to ground already
        // through VDD, IB3/IB4 are modeled from the rail. Total power:
        let power = (i_vdd + 2.0 * self.iref) * self.tech.vdd;

        let freqs = spice::log_freqs(1e3, 1e9, 8);
        let sweeps = spice::ac_multi_with_workspace(
            &ol,
            &self.opts,
            &op,
            &freqs,
            &OPEN_LOOP_EXCITATIONS,
            &mut ws_ol,
        )
        .map_err(|e| (e, "ota ac"))?;
        let [ac_dm, ac_cm, ac_ps] = &sweeps[..] else {
            unreachable!("one sweep per excitation");
        };
        // Differential gain.
        let mag_dm = ac_dm.diff_magnitude(out_p, out_n);
        let ph_dm = ac_dm.diff_phase_unwrapped(out_p, out_n);
        let dc_gain_db = measure::db(mag_dm[0]);
        // Common-mode gain (CM in → CM out) and supply gain (VDD ripple →
        // CM out).
        let a_cm = (ac_cm.voltage(0, out_p) + ac_cm.voltage(0, out_n)).abs() / 2.0;
        let a_ps = (ac_ps.voltage(0, out_p) + ac_ps.voltage(0, out_n)).abs() / 2.0;
        Ok(OpenLoop {
            power,
            dc_gain_db,
            ugf: measure::unity_gain_frequency(&freqs, &mag_dm),
            phase_margin: measure::phase_margin(&freqs, &mag_dm, &ph_dm),
            cmrr_db: dc_gain_db - measure::db(a_cm),
            psrr_db: dc_gain_db - measure::db(a_ps),
            swing: self.output_swing(&op),
            margins: SAT_DEVICES
                .iter()
                .map(|name| op.mos_op(name).map(|mo| mo.vsat_margin).unwrap_or(-1.0))
                .collect(),
        })
    }

    /// Open-loop analysis unit: OP + one three-excitation AC sweep. Owns
    /// the objective (power) and constraints 1, 3–7, 10–29 (gain, CMRR,
    /// saturation margins, PSRR, UGF, swing, phase margin). Simulator
    /// errors here are hard failures that fail the whole corner.
    fn open_loop_analysis(&self, x: &[f64]) -> AnalysisSpec {
        let m = match self.measure_open_loop(x) {
            Ok(m) => m,
            Err((e, analysis)) => {
                return AnalysisSpec::hard_failed(Some(crate::diag_from_spice(&e, analysis)))
            }
        };

        // This unit's slice of the Eq. 9 constraint vector, by global index.
        let mut constraints = Vec::with_capacity(7 + m.margins.len());
        // 1. DC gain > 60 dB.
        constraints.push((0, at_least(m.dc_gain_db, 60.0, 20.0)));
        // 3. CMRR > 80 dB.
        constraints.push((2, at_least(m.cmrr_db, 80.0, 40.0)));
        // 4. Saturation margin > 50 mV (worst device).
        constraints.push((3, at_least(m.min_margin(), 0.05, 0.1)));
        // 5. PSRR > 80 dB.
        constraints.push((4, at_least(m.psrr_db, 80.0, 40.0)));
        // 6. Unity-gain frequency > 30 MHz.
        constraints.push((
            5,
            match m.ugf {
                Some(f) => at_least(f, 30e6, 30e6),
                None => 2.0,
            },
        ));
        // 7. Output swing > 2.4 V (differential).
        constraints.push((6, at_least(m.swing, 2.4, 1.0)));
        // 10. Phase margin > 60°.
        constraints.push((
            9,
            match m.phase_margin {
                Some(deg) => at_least(deg, 60.0, 30.0),
                None => 2.0,
            },
        ));
        // 11–29. Per-device saturation-region requirements (margin > 0).
        for (i, margin) in m.margins.iter().enumerate() {
            constraints.push((10 + i, at_most(-*margin, 0.0, 0.1)));
        }

        AnalysisSpec {
            objective: Some(m.power),
            constraints,
            failure: None,
            failed: false,
        }
    }

    /// Closed-loop measurements: integrated output noise \[V rms\],
    /// settling time and static error \[%\]. Simulator failures degrade
    /// to ∞ noise, no settling time and a 100 % static error.
    fn measure_closed_loop(&self, x: &[f64]) -> (f64, Option<f64>, f64) {
        const FAILED: (f64, Option<f64>, f64) = (f64::INFINITY, None, 100.0);
        let step = 0.5;
        let Ok((cl, cout_p, cout_n)) = self.build_closed_loop(&OtaParams::decode(x), step) else {
            return FAILED;
        };
        let mut ws_cl = spice::lease_workspace(&cl);
        // One operating point serves the noise analysis and the transient's
        // initial condition. When it fails there is no transient to run.
        let Ok(op_cl) = spice::op_with_workspace(&cl, &self.opts, None, &mut ws_cl) else {
            return FAILED;
        };
        let noise_freqs = spice::log_freqs(1e3, 1e8, 4);
        let vnoise = spice::noise_with_workspace(
            &cl,
            &self.opts,
            &op_cl,
            cout_p,
            cout_n,
            &noise_freqs,
            &mut ws_cl,
        )
        .map_or(f64::INFINITY, |nres| nres.total_rms());
        let Ok(tr) = spice::transient_from_op(
            &cl,
            &self.opts,
            &op_cl,
            STEP_T_STOP,
            STEP_T_STEP,
            &mut ws_cl,
        ) else {
            return (vnoise, None, 100.0);
        };
        let wave: Vec<(f64, f64)> = tr
            .times()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, tr.voltage(i, cout_p) - tr.voltage(i, cout_n)))
            .collect();
        // Gain −1 with crossed outputs: the differential output equals
        // +step in this orientation; measure against the actual final value
        // for settling and against the ideal target for static error.
        let target = step;
        let v_final = wave.last().map(|p| p.1).unwrap_or(0.0);
        let settle = measure::settling_time(&wave, 101e-9, v_final, 0.01 * step.abs());
        let err = 100.0 * ((v_final.abs() - target.abs()) / target).abs();
        (vnoise, settle, err)
    }

    /// Closed-loop analysis unit: output noise (in the configuration the
    /// amplifier is actually used in) and the step response. Owns
    /// constraints 2, 8, 9 (settling, noise, static error). Every
    /// simulator error here degrades softly into strong constraint
    /// violations — this unit never hard-fails the corner.
    fn closed_loop_analysis(&self, x: &[f64]) -> AnalysisSpec {
        let (vnoise, settle, static_err_pct) = self.measure_closed_loop(x);
        AnalysisSpec {
            objective: None,
            constraints: vec![
                // 2. Settling time < 30 ns (missing settle = strong
                //    violation).
                (
                    1,
                    match settle {
                        Some(ts) => at_most(ts, 30e-9, 30e-9),
                        None => 3.0,
                    },
                ),
                // 8. Output noise < 30 mV rms.
                (7, at_most(vnoise, 30e-3, 30e-3)),
                // 9. Static error < 0.1 %.
                (8, at_most(static_err_pct, 0.1, 0.2)),
            ],
            failure: None,
            failed: false,
        }
    }
}

/// Measured (not constraint-form) OTA performance, for reports and
/// examples.
#[derive(Debug, Clone)]
pub struct OtaReport {
    /// Static power \[W\].
    pub power: f64,
    /// DC differential gain \[dB\].
    pub dc_gain_db: f64,
    /// Unity-gain frequency \[Hz\].
    pub ugf: Option<f64>,
    /// Phase margin \[deg\].
    pub phase_margin: Option<f64>,
    /// CMRR \[dB\].
    pub cmrr_db: f64,
    /// PSRR \[dB\].
    pub psrr_db: f64,
    /// Integrated output noise \[V rms\].
    pub noise_rms: f64,
    /// Estimated differential output swing \[V\].
    pub swing: f64,
    /// Worst saturation margin \[V\].
    pub min_sat_margin: f64,
}

impl FoldedCascodeOta {
    /// Runs the measurement suite and returns raw performance numbers
    /// (a convenience view over the same analyses `evaluate` runs).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures instead of encoding them as penalty
    /// constraints.
    pub fn report(&self, x: &[f64]) -> Result<OtaReport, SpiceError> {
        let ol = self.measure_open_loop(x).map_err(|(e, _)| e)?;
        // Closed-loop output noise (the spec's configuration).
        let (cl, cout_p, cout_n) = self.build_closed_loop(&OtaParams::decode(x), 0.5)?;
        let mut ws_cl = spice::lease_workspace(&cl);
        let op_cl = spice::op_with_workspace(&cl, &self.opts, None, &mut ws_cl)?;
        let nres = spice::noise_with_workspace(
            &cl,
            &self.opts,
            &op_cl,
            cout_p,
            cout_n,
            &spice::log_freqs(1e3, 1e8, 4),
            &mut ws_cl,
        )?;
        Ok(OtaReport {
            power: ol.power,
            dc_gain_db: ol.dc_gain_db,
            ugf: ol.ugf,
            phase_margin: ol.phase_margin,
            cmrr_db: ol.cmrr_db,
            psrr_db: ol.psrr_db,
            noise_rms: nres.total_rms(),
            swing: ol.swing,
            min_sat_margin: ol.min_margin(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_match_table_one() {
        let ota = FoldedCascodeOta::new();
        let (lb, ub) = ota.bounds();
        assert_eq!(lb.len(), 20);
        assert_eq!(ub.len(), 20);
        assert!((lb[0] - 0.18e-6).abs() < 1e-12); // L lower
        assert!((ub[0] - 2.0e-6).abs() < 1e-12); // L upper
        assert!((lb[7] - 0.24e-6).abs() < 1e-12); // W lower
        assert!((ub[7] - 150e-6).abs() < 1e-12); // W upper
        assert_eq!(lb[14], 1.0); // N lower
        assert_eq!(ub[14], 20.0); // N upper
        assert!((lb[18] - 100e-15).abs() < 1e-24); // MCAP
        assert!((ub[19] - 10000e-15).abs() < 1e-24); // Cf
        assert_eq!(ota.num_constraints(), 29);
        assert_eq!(ota.variable_names()[14], "N1");
    }

    #[test]
    fn params_decode_rounds_multipliers() {
        let ota = FoldedCascodeOta::new();
        let mut x = ota.nominal();
        x[14] = 3.4;
        x[15] = 3.6;
        let p = OtaParams::decode(&x);
        assert_eq!(p.n1, 3.0);
        assert_eq!(p.n2, 4.0);
    }

    #[test]
    fn nominal_design_simulates_and_reports() {
        let ota = FoldedCascodeOta::new();
        let rep = ota.report(&ota.nominal()).expect("nominal must simulate");
        assert!(
            rep.power > 10e-6 && rep.power < 20e-3,
            "power {}",
            rep.power
        );
        assert!(rep.dc_gain_db > 40.0, "gain {}", rep.dc_gain_db);
        assert!(rep.ugf.is_some(), "must cross unity");
        assert!(rep.min_sat_margin > -0.5, "margins {}", rep.min_sat_margin);
    }

    #[test]
    fn evaluate_returns_29_constraints() {
        let ota = FoldedCascodeOta::new();
        let spec = ota.evaluate(&ota.nominal());
        assert_eq!(spec.constraints.len(), 29);
        assert!(spec.objective > 0.0);
        assert!(!spec.is_failure());
    }

    #[test]
    fn bad_design_is_penalized_not_crashing() {
        let ota = FoldedCascodeOta::new();
        let (lb, _) = ota.bounds();
        // Everything at the lower bound: minimum-size devices, starved amp.
        let spec = ota.evaluate(&lb);
        assert_eq!(spec.constraints.len(), 29);
        assert!(!spec.feasible(), "minimum-size design cannot meet Eq. 9");
    }

    #[test]
    fn nominal_corner_is_bit_identical_to_legacy_path() {
        let legacy = FoldedCascodeOta::new();
        let cornered = FoldedCascodeOta::with_corners(CornerSet::pvt5());
        let x = legacy.nominal();
        let a = legacy.evaluate(&x);
        let b = cornered.evaluate_corner(&x, 0);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.constraints.len(), b.constraints.len());
        for (p, q) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn post_layout_variant_scales_unknowns_and_simulates() {
        let pre = FoldedCascodeOta::new();
        let post = FoldedCascodeOta::post_layout();
        let n_pre = pre.template_open.num_unknowns();
        let n_post = post.template_open.num_unknowns();
        assert!(
            n_post >= 200 && n_post > 3 * n_pre,
            "post-layout open-loop testbench must reach mesh scale: {n_pre} -> {n_post}"
        );
        // The meshed testbench still biases up, and a candidate resize
        // (which refreshes the ladder shares in place) still simulates.
        let x = post.nominal();
        let p = OtaParams::decode(&x);
        let (ol, _, _) = post.build_open_loop(&p).expect("meshed netlist");
        let op = spice::op(&ol, &post.opts).expect("meshed op");
        let out_p = ol.find_node("out_p").unwrap();
        let v = op.voltage(out_p);
        assert!(v > 0.2 && v < post.tech.vdd, "out_p bias {v}");
        // Resizing a clone keeps the topology fingerprint (pooled solver
        // state stays shared across candidates).
        let (ol2, _, _) = post.build_open_loop(&p).expect("meshed netlist");
        assert_eq!(ol.topology_id(), ol2.topology_id());
    }

    #[test]
    fn five_corner_plane_evaluates_everywhere() {
        let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
        assert_eq!(ota.num_corners(), 5);
        let x = ota.nominal();
        for k in 0..ota.num_corners() {
            let spec = ota.evaluate_corner(&x, k);
            assert_eq!(spec.constraints.len(), 29);
            assert!(
                !spec.is_failure(),
                "corner {} must simulate",
                ota.corner_name(k)
            );
        }
        // The sign-off view is the worst case over the plane: never better
        // than the nominal corner on any spec.
        let worst = ota.evaluate(&x);
        let nom = ota.evaluate_corner(&x, 0);
        assert!(!worst.is_failure());
        assert!(worst.objective >= nom.objective);
        for (w, n) in worst.constraints.iter().zip(&nom.constraints) {
            assert!(w >= n, "worst case can only tighten: {w} < {n}");
        }
    }

    /// Every time point and node voltage of a transient, plus the supply
    /// current, as raw bits.
    fn tran_bits(ckt: &Circuit, tr: &spice::TranResult) -> Vec<u64> {
        let mut bits = Vec::new();
        for (i, t) in tr.times().iter().enumerate() {
            bits.push(t.to_bits());
            bits.extend((0..ckt.num_nodes()).map(|node| tr.voltage(i, node).to_bits()));
            bits.push(tr.source_current(ckt, "VDD", i).unwrap().to_bits());
        }
        bits
    }

    #[test]
    fn transient_from_the_noise_op_matches_the_full_transient() {
        let ota = FoldedCascodeOta::new();
        let (lb, _) = ota.bounds();
        // L1 at its lower bound: the closed-loop operating point fails
        // plain Newton and is found by gmin stepping (checked with solver
        // telemetry in `tests/telemetry.rs`).
        let mut gmin_design = ota.nominal();
        gmin_design[0] = lb[0];
        // One workspace runs every design's transient back to back, from
        // operating points solved elsewhere: each run must still open its
        // own pivot session.
        let mut chained = None;

        for x in [ota.nominal(), gmin_design] {
            let (cl, out_p, out_n) = ota.build_closed_loop(&OtaParams::decode(&x), 0.5).unwrap();
            let fresh = || spice::NewtonWorkspace::new(&cl);
            let full = spice::transient_with_workspace(
                &cl,
                &ota.opts,
                STEP_T_STOP,
                STEP_T_STEP,
                &mut fresh(),
            )
            .unwrap();
            let want = tran_bits(&cl, &full);

            let op = spice::op_with_workspace(&cl, &ota.opts, None, &mut fresh()).unwrap();
            let from_op = spice::transient_from_op(
                &cl,
                &ota.opts,
                &op,
                STEP_T_STOP,
                STEP_T_STEP,
                &mut fresh(),
            )
            .unwrap();
            assert_eq!(tran_bits(&cl, &from_op), want, "fresh workspaces");

            // The closed-loop unit's rhythm: one pooled workspace runs the
            // operating point, the noise analysis, then the transient.
            let mut ws = spice::lease_workspace(&cl);
            let op = spice::op_with_workspace(&cl, &ota.opts, None, &mut ws).unwrap();
            let freqs = spice::log_freqs(1e3, 1e8, 4);
            spice::noise_with_workspace(&cl, &ota.opts, &op, out_p, out_n, &freqs, &mut ws)
                .unwrap();
            let pooled =
                spice::transient_from_op(&cl, &ota.opts, &op, STEP_T_STOP, STEP_T_STEP, &mut ws)
                    .unwrap();
            assert_eq!(tran_bits(&cl, &pooled), want, "pooled after noise");

            let ws = chained.get_or_insert_with(fresh);
            let op = spice::op_with_workspace(&cl, &ota.opts, None, &mut fresh()).unwrap();
            let chain = spice::transient_from_op(&cl, &ota.opts, &op, STEP_T_STOP, STEP_T_STEP, ws)
                .unwrap();
            assert_eq!(tran_bits(&cl, &chain), want, "back-to-back transients");
        }
    }

    #[test]
    fn open_loop_excitations_match_three_single_sweeps() {
        let ota = FoldedCascodeOta::new();
        let (ol, _, _) = ota
            .build_open_loop(&OtaParams::decode(&ota.nominal()))
            .unwrap();
        let op = spice::op(&ol, &ota.opts).unwrap();
        let freqs = spice::log_freqs(1e3, 1e9, 8);
        let mut ws = spice::NewtonWorkspace::new(&ol);
        let multi = spice::ac_multi_with_workspace(
            &ol,
            &ota.opts,
            &op,
            &freqs,
            &OPEN_LOOP_EXCITATIONS,
            &mut ws,
        )
        .unwrap();
        for (sources, got) in OPEN_LOOP_EXCITATIONS.iter().zip(&multi) {
            let mut single = ol.clone();
            single.clear_ac_mags();
            for &(name, mag) in *sources {
                single.set_ac_mag(name, mag).unwrap();
            }
            let want = spice::ac_with_workspace(
                &single,
                &ota.opts,
                &op,
                &freqs,
                &mut spice::NewtonWorkspace::new(&single),
            )
            .unwrap();
            for fi in 0..freqs.len() {
                for node in 0..ol.num_nodes() {
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

    #[test]
    fn report_reproduces_the_open_loop_constraints() {
        let ota = FoldedCascodeOta::new();
        let x = ota.nominal();
        let rep = ota.report(&x).unwrap();
        let spec = ota.evaluate(&x);
        let c = |i: usize| spec.constraints[i].to_bits();
        assert_eq!(spec.objective.to_bits(), rep.power.to_bits(), "power");
        assert_eq!(c(0), at_least(rep.dc_gain_db, 60.0, 20.0).to_bits(), "gain");
        assert_eq!(c(2), at_least(rep.cmrr_db, 80.0, 40.0).to_bits(), "CMRR");
        assert_eq!(c(4), at_least(rep.psrr_db, 80.0, 40.0).to_bits(), "PSRR");
        let ugf = rep.ugf.expect("nominal crosses unity");
        assert_eq!(c(5), at_least(ugf, 30e6, 30e6).to_bits(), "UGF");
        let pm = rep.phase_margin.expect("nominal has a phase margin");
        assert_eq!(c(9), at_least(pm, 60.0, 30.0).to_bits(), "phase margin");
        assert_eq!(c(6), at_least(rep.swing, 2.4, 1.0).to_bits(), "swing");
        assert_eq!(
            c(3),
            at_least(rep.min_sat_margin, 0.05, 0.1).to_bits(),
            "margin"
        );
    }
}
