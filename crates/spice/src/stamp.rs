//! MNA stamping infrastructure shared by all analyses.
//!
//! Unknown ordering: the first `num_nodes − 1` unknowns are the voltages of
//! nodes `1..num_nodes` (ground is eliminated); the remaining unknowns are
//! branch currents of voltage-source-like devices in registration order.
//!
//! Sign conventions (KCL written as "sum of currents leaving each node = 0",
//! moved sources to the right-hand side):
//!
//! - conductance `g` between `a`,`b`: classic 4-point stamp;
//! - current `i` flowing `p → n` *through a device*: `z[p] -= i`, `z[n] += i`;
//! - voltage source branch current is defined flowing from `p` into the
//!   source and out of `n`.

use linalg::{Matrix, C64};

use crate::mos::{MosEval, MosStamp};
use crate::netlist::{Circuit, Device, NodeId};
use crate::waveform::Waveform;

/// An MNA stamp sink: the destination of assembly writes.
///
/// The write *sequence* of an assembly pass is fixed by the circuit
/// topology — every stamp method touches the same matrix positions in the
/// same order regardless of device values — which is what makes replaying
/// a recorded sequence sound. Three monomorphized implementations exist,
/// so each assembly path compiles to straight-line code with no per-write
/// dispatch:
///
/// - [`RealStamper`]: classic `a[(i, j)] += v` into the dense matrix;
/// - [`RecordStamper`]: logs each `(row, col)` once to learn the sequence,
///   which becomes a CSC pattern plus a stamp→slot map;
/// - [`SlotStamper`]: replays through the slot map —
///   `values[slots[cursor]] += v` — assembling straight into the CSC value
///   array with no index search at all.
pub trait Stamp {
    /// Number of nodes including ground.
    fn num_nodes(&self) -> usize;

    /// One matrix write.
    fn add_a(&mut self, i: usize, j: usize, v: f64);

    /// One right-hand-side write.
    fn add_z(&mut self, i: usize, v: f64);

    /// Matrix row/column of a node, or `None` for ground.
    #[inline]
    fn node_idx(&self, n: NodeId) -> Option<usize> {
        if n == 0 {
            None
        } else {
            Some(n - 1)
        }
    }

    /// Matrix row/column of a branch current.
    #[inline]
    fn branch_idx(&self, branch: usize) -> usize {
        self.num_nodes() - 1 + branch
    }

    /// Stamps a conductance between two nodes.
    fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let (ia, ib) = (self.node_idx(a), self.node_idx(b));
        if let Some(i) = ia {
            self.add_a(i, i, g);
        }
        if let Some(j) = ib {
            self.add_a(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.add_a(i, j, -g);
            self.add_a(j, i, -g);
        }
    }

    /// Stamps a fixed current `i` flowing from `p` through the device to
    /// `n`.
    fn current_source(&mut self, p: NodeId, n: NodeId, i: f64) {
        if let Some(ip) = self.node_idx(p) {
            self.add_z(ip, -i);
        }
        if let Some(inn) = self.node_idx(n) {
            self.add_z(inn, i);
        }
    }

    /// Stamps a VCCS: current `gm·v(cp,cn)` flowing `p → n`.
    fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        let (ip, inn) = (self.node_idx(p), self.node_idx(n));
        let (icp, icn) = (self.node_idx(cp), self.node_idx(cn));
        if let Some(i) = ip {
            if let Some(j) = icp {
                self.add_a(i, j, gm);
            }
            if let Some(j) = icn {
                self.add_a(i, j, -gm);
            }
        }
        if let Some(i) = inn {
            if let Some(j) = icp {
                self.add_a(i, j, -gm);
            }
            if let Some(j) = icn {
                self.add_a(i, j, gm);
            }
        }
    }

    /// Stamps a voltage source of value `v` with the given branch.
    fn vsource(&mut self, branch: usize, p: NodeId, n: NodeId, v: f64) {
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, 1.0);
            self.add_a(br, i, 1.0);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -1.0);
            self.add_a(br, i, -1.0);
        }
        self.add_z(br, v);
    }

    /// Stamps a VCVS `v(p,n) = gain·v(cp,cn)` with the given branch.
    fn vcvs(&mut self, branch: usize, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, 1.0);
            self.add_a(br, i, 1.0);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -1.0);
            self.add_a(br, i, -1.0);
        }
        if let Some(j) = self.node_idx(cp) {
            self.add_a(br, j, -gain);
        }
        if let Some(j) = self.node_idx(cn) {
            self.add_a(br, j, gain);
        }
    }

    /// Adds `gmin` from every non-ground node to ground (diagonal loading).
    fn load_gmin(&mut self, gmin: f64) {
        for i in 0..(self.num_nodes() - 1) {
            self.add_a(i, i, gmin);
        }
    }
}

/// Dense real MNA system `A·x = z` under assembly.
#[derive(Debug, Clone)]
pub struct RealStamper {
    /// Number of nodes including ground.
    n_nodes: usize,
    /// System matrix.
    pub a: Matrix,
    /// Right-hand side.
    pub z: Vec<f64>,
}

impl Stamp for RealStamper {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, v: f64) {
        self.a[(i, j)] += v;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: f64) {
        self.z[i] += v;
    }
}

impl RealStamper {
    /// Creates a zeroed system for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        RealStamper {
            n_nodes: circuit.num_nodes(),
            a: Matrix::zeros(n, n),
            z: vec![0.0; n],
        }
    }

    /// Zeroes the system for re-assembly.
    pub fn clear(&mut self) {
        self.a.as_mut_slice().fill(0.0);
        self.z.fill(0.0);
    }

    /// Number of nodes (including ground) the stamper was built for.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Matrix row/column of a node, or `None` for ground.
    #[inline]
    pub fn node_idx(&self, n: NodeId) -> Option<usize> {
        Stamp::node_idx(self, n)
    }

    /// Matrix row/column of a branch current.
    #[inline]
    pub fn branch_idx(&self, branch: usize) -> usize {
        Stamp::branch_idx(self, branch)
    }

    /// Stamps a conductance between two nodes.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        Stamp::conductance(self, a, b, g);
    }

    /// Stamps a fixed current `i` flowing from `p` through the device to `n`.
    pub fn current_source(&mut self, p: NodeId, n: NodeId, i: f64) {
        Stamp::current_source(self, p, n, i);
    }

    /// Stamps a VCCS: current `gm·v(cp,cn)` flowing `p → n`.
    pub fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        Stamp::vccs(self, p, n, cp, cn, gm);
    }

    /// Stamps a voltage source of value `v` with the given branch.
    pub fn vsource(&mut self, branch: usize, p: NodeId, n: NodeId, v: f64) {
        Stamp::vsource(self, branch, p, n, v);
    }

    /// Stamps a VCVS `v(p,n) = gain·v(cp,cn)` with the given branch.
    pub fn vcvs(&mut self, branch: usize, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        Stamp::vcvs(self, branch, p, n, cp, cn, gain);
    }

    /// Adds `gmin` from every non-ground node to ground (diagonal loading).
    pub fn load_gmin(&mut self, gmin: f64) {
        Stamp::load_gmin(self, gmin);
    }
}

/// Write-sequence recorder: one assembly pass through this sink yields the
/// ordered `(row, col)` coordinates of every matrix write, from which
/// `linalg::CscMatrix::from_coordinates` builds the sparse pattern and the
/// stamp→slot map.
#[derive(Debug, Clone)]
pub(crate) struct RecordStamper {
    n_nodes: usize,
    /// Ordered matrix-write coordinates.
    pub(crate) writes: Vec<(usize, usize)>,
}

impl RecordStamper {
    /// Creates a recorder for the circuit.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        RecordStamper {
            n_nodes: circuit.num_nodes(),
            writes: Vec::new(),
        }
    }
}

impl Stamp for RecordStamper {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, v: f64) {
        let _ = v;
        self.writes.push((i, j));
    }

    #[inline]
    fn add_z(&mut self, _i: usize, _v: f64) {}
}

/// Slot-map stamper: assembles directly into a CSC value array by
/// replaying the recorded write sequence (`values[slots[cursor]] += v`).
/// The borrowed buffers live in `NewtonWorkspace`'s sparse plan.
#[derive(Debug)]
pub(crate) struct SlotStamper<'a> {
    n_nodes: usize,
    /// Per-write CSC value index, in stamp order.
    slots: &'a [u32],
    /// CSC value array under assembly.
    values: &'a mut [f64],
    /// Right-hand side.
    z: &'a mut [f64],
    /// Index of the next write.
    cursor: usize,
}

impl<'a> SlotStamper<'a> {
    /// Creates a slot stamper over zeroed buffers.
    pub(crate) fn new(
        n_nodes: usize,
        slots: &'a [u32],
        values: &'a mut [f64],
        z: &'a mut [f64],
    ) -> Self {
        values.fill(0.0);
        z.fill(0.0);
        Self::resume(n_nodes, slots, values, z)
    }

    /// Creates a slot stamper that accumulates *on top of* the buffers'
    /// current contents — the varying-segment replay of a split assembly,
    /// where `values`/`z` were preloaded with the constant part.
    pub(crate) fn resume(
        n_nodes: usize,
        slots: &'a [u32],
        values: &'a mut [f64],
        z: &'a mut [f64],
    ) -> Self {
        SlotStamper {
            n_nodes,
            slots,
            values,
            z,
            cursor: 0,
        }
    }

    /// True if the assembly pass consumed the slot map exactly (a mismatch
    /// in either direction means the write sequence drifted from the
    /// recording and the caller must fall back to the dense kernel).
    pub(crate) fn complete(&self) -> bool {
        self.cursor == self.slots.len()
    }
}

impl Stamp for SlotStamper<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, _i: usize, _j: usize, v: f64) {
        // A drifted sequence may emit *more* writes than were recorded;
        // swallow the excess (the cursor overrun makes `complete()` report
        // the drift) instead of indexing past the slot map.
        if let Some(&slot) = self.slots.get(self.cursor) {
            self.values[slot as usize] += v;
        }
        self.cursor += 1;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: f64) {
        self.z[i] += v;
    }
}

/// Right-hand-side-only replay of a recorded write sequence: matrix writes
/// only advance the cursor — the caller keeps the matrix values of an
/// earlier pass whose matrix inputs were identical (see
/// [`Assemble::constant_matrix_key`]) — while right-hand-side writes
/// accumulate into a zeroed `z` in the recorded order, so `z` comes out
/// bit-identical to a full slot-map pass.
#[derive(Debug)]
pub(crate) struct RhsStamper<'a> {
    n_nodes: usize,
    /// Length of the recorded matrix-write sequence.
    writes: usize,
    /// Right-hand side.
    z: &'a mut [f64],
    /// Index of the next matrix write.
    cursor: usize,
}

impl<'a> RhsStamper<'a> {
    /// Creates a right-hand-side stamper over a zeroed `z` for a recorded
    /// sequence of `writes` matrix writes.
    pub(crate) fn new(n_nodes: usize, writes: usize, z: &'a mut [f64]) -> Self {
        z.fill(0.0);
        RhsStamper {
            n_nodes,
            writes,
            z,
            cursor: 0,
        }
    }

    /// True if the pass emitted exactly the recorded number of matrix
    /// writes (same drift check as [`SlotStamper::complete`]).
    pub(crate) fn complete(&self) -> bool {
        self.cursor == self.writes
    }
}

impl Stamp for RhsStamper<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, _i: usize, _j: usize, _v: f64) {
        self.cursor += 1;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: f64) {
        self.z[i] += v;
    }
}

/// How source values are sampled during resistive assembly.
#[derive(Debug, Clone, Copy)]
pub enum SourceEval {
    /// DC values (waveform at its `dc_value`), scaled by the factor
    /// (source stepping uses scale < 1).
    Dc {
        /// Source scale factor in `[0, 1]`.
        scale: f64,
    },
    /// Transient values at time `t`.
    Time {
        /// Simulation time \[s\].
        t: f64,
    },
}

impl SourceEval {
    fn value(self, wave: &Waveform) -> f64 {
        match self {
            SourceEval::Dc { scale } => wave.dc_value() * scale,
            SourceEval::Time { t } => wave.value(t),
        }
    }
}

/// Extracts node voltage from an unknown vector (`x[node-1]`, ground = 0).
#[inline]
pub fn node_voltage(x: &[f64], n: NodeId) -> f64 {
    if n == 0 {
        0.0
    } else {
        x[n - 1]
    }
}

/// One linearized-system assembly routine, generic over the stamp sink so
/// each destination (dense matrix, write recorder, CSC slot map) gets its
/// own monomorphized, dispatch-free copy. Implementors capture whatever
/// state the assembly needs (circuit, gmin, source evaluation, transient
/// companion models); the Newton engine calls [`Assemble::assemble`] once
/// per iteration.
///
/// # Constant/varying write split
///
/// Within one Newton solve only the MOS linearizations depend on the
/// unknown vector `x`; every other stamp (gmin loading, linear devices,
/// sources at the solve's time/scale, capacitor companion models) is
/// constant across the solve's iterations. Implementors that advertise
/// [`Assemble::supports_split`] expose the two segments separately so the
/// sparse slot-map engine can assemble the constant part **once per
/// solve** and replay only the varying slots per iteration:
///
/// - [`Assemble::assemble_constant`] stamps the x-independent writes;
/// - [`Assemble::assemble_varying`] stamps the x-dependent writes.
///
/// The union of the two write sequences must cover exactly the positions
/// [`Assemble::assemble`] touches, and both sequences must be
/// value-independent (fixed by the topology), like the full sequence.
pub(crate) trait Assemble {
    /// Stamps the full linearized system at the unknown vector `x`.
    fn assemble<S: Stamp>(&mut self, x: &[f64], st: &mut S);

    /// True when the implementor distinguishes constant from x-dependent
    /// writes (see the trait docs).
    fn supports_split(&self) -> bool {
        false
    }

    /// Stamps the x-independent writes. Only called when
    /// [`Assemble::supports_split`] returns true.
    fn assemble_constant<S: Stamp>(&mut self, st: &mut S) {
        let _ = st;
    }

    /// Stamps the x-dependent writes. Only called when
    /// [`Assemble::supports_split`] returns true.
    fn assemble_varying<S: Stamp>(&mut self, x: &[f64], st: &mut S) {
        self.assemble(x, st);
    }

    /// Bit key of every input the constant segment's *matrix* values
    /// depend on besides the circuit itself. Within one solve session (one
    /// circuit), two solves with equal keys stamp bit-identical constant
    /// matrix values, so the slot-map engine re-stamps only the
    /// right-hand side. `None` (the default) re-stamps the whole constant
    /// segment every solve.
    fn constant_matrix_key(&self) -> Option<[u64; 2]> {
        None
    }
}

/// Which devices a resistive assembly walk stamps. The linear/MOS split is
/// what lets the slot-map engine replay only the x-dependent writes per
/// Newton iteration (see [`Assemble`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeviceFilter {
    /// Every device (the classic full assembly).
    All,
    /// Linear (x-independent) devices only: resistors, sources, controlled
    /// sources. Their stamps never read the unknown vector.
    LinearOnly,
    /// MOSFET linearizations only — the stamps that change with `x`.
    MosOnly,
}

/// Shared assembly walk: stamps every device selected by `filter` (the
/// MOSFETs through [`stamp_mos`]), collecting each stamped device's
/// evaluation (`None` for non-MOS devices) in device order when `report`
/// is set.
fn stamp_resistive_impl<S: Stamp>(
    circuit: &Circuit,
    x: &[f64],
    sources: SourceEval,
    st: &mut S,
    filter: DeviceFilter,
    mut report: Option<&mut Vec<Option<MosEval>>>,
) {
    if filter == DeviceFilter::MosOnly {
        for dev in circuit.mosfets() {
            stamp_mos(dev, x, st, report.as_deref_mut());
        }
        return;
    }
    for dev in circuit.devices() {
        if let Device::Mosfet { .. } = dev {
            if filter == DeviceFilter::All {
                stamp_mos(dev, x, st, report.as_deref_mut());
            }
            continue;
        }
        if let Some(evals) = report.as_deref_mut() {
            evals.push(None);
        }
        match dev {
            Device::Resistor { a, b, g, .. } => st.conductance(*a, *b, *g),
            // Open circuit in DC; handled by the transient/AC engines.
            Device::Capacitor { .. } => {}
            Device::VSource {
                p, n, wave, branch, ..
            } => st.vsource(*branch, *p, *n, sources.value(wave)),
            Device::ISource { p, n, wave, .. } => st.current_source(*p, *n, sources.value(wave)),
            Device::Vcvs {
                p,
                n,
                cp,
                cn,
                gain,
                branch,
                ..
            } => st.vcvs(*branch, *p, *n, *cp, *cn, *gain),
            Device::Vccs {
                p, n, cp, cn, gm, ..
            } => st.vccs(*p, *n, *cp, *cn, *gm),
            Device::Mosfet { .. } => unreachable!("handled above"),
        }
    }
}

/// Stamps one MOSFET's Norton companion linearized at `x`, through the
/// stamping path ([`crate::mos::eval_mos_stamp`] on the device's
/// precomputed constants) — or, with `report` set, through the full
/// [`crate::mos::eval_mos`], whose evaluation is appended to `report`.
#[inline]
fn stamp_mos<S: Stamp>(
    dev: &Device,
    x: &[f64],
    st: &mut S,
    report: Option<&mut Vec<Option<MosEval>>>,
) {
    let Device::Mosfet {
        d,
        g,
        s,
        b,
        model,
        w,
        l,
        m,
        consts,
        ..
    } = dev
    else {
        unreachable!("stamp_mos takes MOSFETs only");
    };
    let vd = node_voltage(x, *d);
    let vg = node_voltage(x, *g);
    let vs = node_voltage(x, *s);
    let vb = node_voltage(x, *b);
    let e = match report {
        None => crate::mos::eval_mos_stamp(model, consts, vg - vs, vd - vs, vb - vs),
        Some(evals) => {
            let e = crate::mos::eval_mos(model, *w, *l, *m, vg - vs, vd - vs, vb - vs);
            evals.push(Some(e));
            MosStamp {
                id: e.id,
                gm: e.gm,
                gds: e.gds,
                gmb: e.gmb,
            }
        }
    };
    // Norton companion: i(v) ≈ ieq + gm·vgs + gds·vds + gmb·vbs.
    let vgs = vg - vs;
    let vds = vd - vs;
    let vbs = vb - vs;
    let ieq = e.id - e.gm * vgs - e.gds * vds - e.gmb * vbs;
    st.vccs(*d, *s, *g, *s, e.gm);
    st.conductance(*d, *s, e.gds);
    st.vccs(*d, *s, *b, *s, e.gmb);
    st.current_source(*d, *s, ieq);
}

/// Stamps the *resistive* (memoryless) part of every device, linearized at
/// the unknown vector `x`. Returns the MOSFET evaluations in device order
/// (`None` for non-MOS devices) so callers can check convergence and build
/// operating-point reports.
pub fn stamp_resistive(
    circuit: &Circuit,
    x: &[f64],
    sources: SourceEval,
    st: &mut RealStamper,
) -> Vec<Option<MosEval>> {
    let mut evals = Vec::with_capacity(circuit.devices().len());
    stamp_resistive_impl(circuit, x, sources, st, DeviceFilter::All, Some(&mut evals));
    evals
}

/// Allocation-free variant of [`stamp_resistive`] for the Newton hot loop,
/// which only needs the assembled system, not the per-device evaluations.
pub fn stamp_resistive_system<S: Stamp>(
    circuit: &Circuit,
    x: &[f64],
    sources: SourceEval,
    st: &mut S,
) {
    stamp_resistive_impl(circuit, x, sources, st, DeviceFilter::All, None);
}

/// Stamps only the linear (x-independent) devices — the constant segment
/// of a split assembly. Linear stamps never read the unknown vector.
pub(crate) fn stamp_resistive_linear<S: Stamp>(circuit: &Circuit, sources: SourceEval, st: &mut S) {
    stamp_resistive_impl(circuit, &[], sources, st, DeviceFilter::LinearOnly, None);
}

/// Stamps only the MOSFET linearizations at `x` — the varying segment of a
/// split assembly.
pub(crate) fn stamp_resistive_mos<S: Stamp>(circuit: &Circuit, x: &[f64], st: &mut S) {
    stamp_resistive_impl(
        circuit,
        x,
        SourceEval::Dc { scale: 1.0 },
        st,
        DeviceFilter::MosOnly,
        None,
    );
}

/// A complex MNA stamp sink: the frequency-domain mirror of [`Stamp`].
///
/// The write *sequence* of a small-signal assembly pass is fixed by the
/// circuit topology — ω enters the stamped *values* (`jωC` admittances)
/// but never the touched positions or their order — which is what lets one
/// recorded pass serve every frequency point of a sweep. Three
/// monomorphized implementations exist:
///
/// - [`ComplexStamper`]: classic dense `a[i][j] += y` assembly (the
///   universal fallback);
/// - [`ComplexRecordStamper`]: logs each `(row, col)` once to learn the
///   sequence, which becomes a CSC pattern plus a stamp→slot map;
/// - [`ComplexSlotStamper`]: replays through the slot map —
///   `values[slots[cursor]] += y` — assembling straight into the complex
///   CSC value array with no index search at all.
pub trait ComplexStamp {
    /// Number of nodes including ground.
    fn num_nodes(&self) -> usize;

    /// One matrix write.
    fn add_a(&mut self, i: usize, j: usize, v: C64);

    /// One right-hand-side write.
    fn add_z(&mut self, i: usize, v: C64);

    /// Matrix row/column of a node, or `None` for ground.
    #[inline]
    fn node_idx(&self, n: NodeId) -> Option<usize> {
        if n == 0 {
            None
        } else {
            Some(n - 1)
        }
    }

    /// Matrix row/column of a branch current.
    #[inline]
    fn branch_idx(&self, branch: usize) -> usize {
        self.num_nodes() - 1 + branch
    }

    /// Stamps a complex admittance between two nodes.
    fn admittance(&mut self, a: NodeId, b: NodeId, y: C64) {
        let (ia, ib) = (self.node_idx(a), self.node_idx(b));
        if let Some(i) = ia {
            self.add_a(i, i, y);
        }
        if let Some(j) = ib {
            self.add_a(j, j, y);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.add_a(i, j, -y);
            self.add_a(j, i, -y);
        }
    }

    /// Stamps a real VCCS.
    fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        let g = C64::real(gm);
        let (ip, inn) = (self.node_idx(p), self.node_idx(n));
        let (icp, icn) = (self.node_idx(cp), self.node_idx(cn));
        if let Some(i) = ip {
            if let Some(j) = icp {
                self.add_a(i, j, g);
            }
            if let Some(j) = icn {
                self.add_a(i, j, -g);
            }
        }
        if let Some(i) = inn {
            if let Some(j) = icp {
                self.add_a(i, j, -g);
            }
            if let Some(j) = icn {
                self.add_a(i, j, g);
            }
        }
    }

    /// Stamps a voltage source with complex value `v`.
    fn vsource(&mut self, branch: usize, p: NodeId, n: NodeId, v: C64) {
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, C64::ONE);
            self.add_a(br, i, C64::ONE);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -C64::ONE);
            self.add_a(br, i, -C64::ONE);
        }
        self.add_z(br, v);
    }

    /// Stamps a VCVS.
    fn vcvs(&mut self, branch: usize, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, C64::ONE);
            self.add_a(br, i, C64::ONE);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -C64::ONE);
            self.add_a(br, i, -C64::ONE);
        }
        if let Some(j) = self.node_idx(cp) {
            self.add_a(br, j, -C64::real(gain));
        }
        if let Some(j) = self.node_idx(cn) {
            self.add_a(br, j, C64::real(gain));
        }
    }

    /// Stamps an AC current source `i` flowing `p → n`.
    fn current_source(&mut self, p: NodeId, n: NodeId, i: C64) {
        if let Some(ip) = self.node_idx(p) {
            self.add_z(ip, -i);
        }
        if let Some(inn) = self.node_idx(n) {
            self.add_z(inn, i);
        }
    }

    /// Adds `gmin` diagonal loading on node rows.
    fn load_gmin(&mut self, gmin: f64) {
        for i in 0..(self.num_nodes() - 1) {
            self.add_a(i, i, C64::real(gmin));
        }
    }
}

/// One small-signal assembly routine, generic over the complex stamp sink
/// so each destination (dense rows, write recorder, CSC slot map) gets its
/// own monomorphized, dispatch-free copy — the complex mirror of
/// [`Assemble`]. Implementors capture the circuit, operating point, and ω;
/// the AC/noise engines call [`AssembleComplex::assemble`] once per
/// frequency point.
pub(crate) trait AssembleComplex {
    /// Stamps the full small-signal system.
    fn assemble<S: ComplexStamp>(&mut self, st: &mut S);
}

/// Dense complex MNA system for AC/noise analyses.
#[derive(Debug, Clone)]
pub struct ComplexStamper {
    n_nodes: usize,
    /// System matrix rows.
    pub a: Vec<Vec<C64>>,
    /// Right-hand side.
    pub z: Vec<C64>,
}

impl ComplexStamp for ComplexStamper {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, v: C64) {
        self.a[i][j] += v;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: C64) {
        self.z[i] += v;
    }
}

impl ComplexStamper {
    /// Creates a zeroed system for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        ComplexStamper {
            n_nodes: circuit.num_nodes(),
            a: vec![vec![C64::ZERO; n]; n],
            z: vec![C64::ZERO; n],
        }
    }

    /// Zeroes the system for re-assembly.
    pub fn clear(&mut self) {
        for row in &mut self.a {
            row.fill(C64::ZERO);
        }
        self.z.fill(C64::ZERO);
    }

    /// Matrix row/column of a node, or `None` for ground.
    #[inline]
    pub fn node_idx(&self, n: NodeId) -> Option<usize> {
        ComplexStamp::node_idx(self, n)
    }

    /// Matrix row/column of a branch current.
    #[inline]
    pub fn branch_idx(&self, branch: usize) -> usize {
        ComplexStamp::branch_idx(self, branch)
    }

    /// Stamps a complex admittance between two nodes.
    pub fn admittance(&mut self, a: NodeId, b: NodeId, y: C64) {
        ComplexStamp::admittance(self, a, b, y);
    }

    /// Stamps a real VCCS.
    pub fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        ComplexStamp::vccs(self, p, n, cp, cn, gm);
    }

    /// Stamps a voltage source with complex value `v`.
    pub fn vsource(&mut self, branch: usize, p: NodeId, n: NodeId, v: C64) {
        ComplexStamp::vsource(self, branch, p, n, v);
    }

    /// Stamps a VCVS.
    pub fn vcvs(&mut self, branch: usize, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        ComplexStamp::vcvs(self, branch, p, n, cp, cn, gain);
    }

    /// Stamps an AC current source `i` flowing `p → n`.
    pub fn current_source(&mut self, p: NodeId, n: NodeId, i: C64) {
        ComplexStamp::current_source(self, p, n, i);
    }

    /// Adds `gmin` diagonal loading on node rows.
    pub fn load_gmin(&mut self, gmin: f64) {
        ComplexStamp::load_gmin(self, gmin);
    }
}

/// Complex write-sequence recorder: one small-signal assembly pass through
/// this sink yields the ordered `(row, col)` coordinates of every matrix
/// write, from which `linalg::CscComplexMatrix::from_coordinates` builds
/// the sparse pattern and the stamp→slot map. The sequence is ω- and
/// value-independent, so a single recording serves the whole sweep.
#[derive(Debug, Clone)]
pub(crate) struct ComplexRecordStamper {
    n_nodes: usize,
    /// Ordered matrix-write coordinates.
    pub(crate) writes: Vec<(usize, usize)>,
}

impl ComplexRecordStamper {
    /// Creates a recorder for the circuit.
    pub(crate) fn new(circuit: &Circuit) -> Self {
        ComplexRecordStamper {
            n_nodes: circuit.num_nodes(),
            writes: Vec::new(),
        }
    }
}

impl ComplexStamp for ComplexRecordStamper {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, v: C64) {
        let _ = v;
        self.writes.push((i, j));
    }

    #[inline]
    fn add_z(&mut self, _i: usize, _v: C64) {}
}

/// Complex slot-map stamper: assembles directly into a complex CSC value
/// array by replaying the recorded write sequence
/// (`values[slots[cursor]] += y`). The borrowed buffers live in the AC
/// workspace's sparse plan.
#[derive(Debug)]
pub(crate) struct ComplexSlotStamper<'a> {
    n_nodes: usize,
    /// Per-write CSC value index, in stamp order.
    slots: &'a [u32],
    /// Complex CSC value array under assembly.
    values: &'a mut [C64],
    /// Right-hand side.
    z: &'a mut [C64],
    /// Index of the next write.
    cursor: usize,
}

impl<'a> ComplexSlotStamper<'a> {
    /// Creates a slot stamper over zeroed buffers.
    pub(crate) fn new(
        n_nodes: usize,
        slots: &'a [u32],
        values: &'a mut [C64],
        z: &'a mut [C64],
    ) -> Self {
        values.fill(C64::ZERO);
        z.fill(C64::ZERO);
        ComplexSlotStamper {
            n_nodes,
            slots,
            values,
            z,
            cursor: 0,
        }
    }

    /// True if the assembly pass consumed the slot map exactly (a mismatch
    /// in either direction means the write sequence drifted from the
    /// recording and the caller must fall back to the dense kernel).
    pub(crate) fn complete(&self) -> bool {
        self.cursor == self.slots.len()
    }
}

impl ComplexStamp for ComplexSlotStamper<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, _i: usize, _j: usize, v: C64) {
        // A drifted sequence may emit *more* writes than were recorded;
        // swallow the excess (the cursor overrun makes `complete()` report
        // the drift) instead of indexing past the slot map.
        if let Some(&slot) = self.slots.get(self.cursor) {
            self.values[slot as usize] += v;
        }
        self.cursor += 1;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: C64) {
        self.z[i] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GND;

    #[test]
    fn conductance_stamp_pattern() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R", a, b, 0.5).unwrap(); // g = 2
        let mut st = RealStamper::new(&c);
        stamp_resistive(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.a[(0, 0)], 2.0);
        assert_eq!(st.a[(1, 1)], 2.0);
        assert_eq!(st.a[(0, 1)], -2.0);
        assert_eq!(st.a[(1, 0)], -2.0);
    }

    #[test]
    fn grounded_conductance_stamps_diagonal_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R", a, GND, 1.0).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive(&c, &[0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.a[(0, 0)], 1.0);
    }

    #[test]
    fn vsource_branch_rows() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(3.0)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        // node row gets +1 on branch column; branch row +1 on node column.
        assert_eq!(st.a[(0, 1)], 1.0);
        assert_eq!(st.a[(1, 0)], 1.0);
        assert_eq!(st.z[1], 3.0);
    }

    #[test]
    fn source_scaling() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(2.0)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive(&c, &[0.0, 0.0], SourceEval::Dc { scale: 0.25 }, &mut st);
        assert_eq!(st.z[1], 0.5);
    }

    #[test]
    fn isource_rhs_signs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_isource("I", a, b, Waveform::Dc(1e-3)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.z[0], -1e-3);
        assert_eq!(st.z[1], 1e-3);
    }

    #[test]
    fn split_assembly_covers_the_full_system() {
        // Mixed circuit: linear front-end plus MOS load. Constant + varying
        // passes must reproduce the full assembly exactly (the MOS device
        // is registered last, so the per-cell accumulation order of the
        // split walk matches the full walk bit for bit).
        use crate::mos::{MosModel, MosPolarity};
        let m = MosModel {
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
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("V1", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_resistor("R1", vdd, d, 10e3).unwrap();
        c.add_mosfet("M1", d, d, GND, GND, &m, 4e-6, 0.5e-6, 1.0)
            .unwrap();
        let x = vec![1.8, 0.6, 0.0];

        let mut full = RealStamper::new(&c);
        stamp_resistive_system(&c, &x, SourceEval::Dc { scale: 1.0 }, &mut full);

        let mut split = RealStamper::new(&c);
        stamp_resistive_linear(&c, SourceEval::Dc { scale: 1.0 }, &mut split);
        stamp_resistive_mos(&c, &x, &mut split);

        assert_eq!(full.a, split.a);
        assert_eq!(full.z, split.z);
    }

    #[test]
    fn gmin_loading_touches_node_rows_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(1.0)).unwrap();
        let mut st = RealStamper::new(&c);
        st.load_gmin(1e-9);
        assert_eq!(st.a[(0, 0)], 1e-9);
        assert_eq!(st.a[(1, 1)], 0.0);
    }
}
