//! MNA stamping infrastructure shared by all analyses, written once over
//! the scalar type: `f64` for the DC/transient Newton systems, [`C64`] for
//! the frequency-domain `G + jωC` systems.
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

use linalg::{Scalar, C64};

use crate::mos::{MosEval, MosPhases};
use crate::netlist::{Circuit, Device, NodeId};
use crate::waveform::Waveform;

/// An MNA stamp sink over scalar type `T`: the destination of assembly
/// writes.
///
/// The write *sequence* of an assembly pass is fixed by the circuit
/// topology — every stamp method touches the same matrix positions in the
/// same order regardless of device values (or of ω, for a small-signal
/// pass) — which is what makes replaying a recorded sequence sound. Four
/// sinks exist, each written once for both scalar types and monomorphized,
/// so each assembly path compiles to straight-line code with no per-write
/// dispatch:
///
/// - [`DenseStamper`]: classic row-major `a[i·n + j] += v` into a dense
///   matrix — the reference assembly that tests and the mesh bench
///   builders use, never the simulator's own;
/// - `RecordStamper`: logs each `(row, col)` once to learn the sequence,
///   which becomes a CSC pattern plus a stamp→slot map;
/// - `SlotStamper`: replays through the slot map —
///   `values[slots[cursor]] += v` — assembling straight into the CSC value
///   array with no index search at all;
/// - `RhsStamper`: keeps only the right-hand-side writes, for a solve
///   whose matrix values an earlier pass already stamped, or for an AC
///   excitation.
///
/// Real device parameters (`gm`, `gain`, `gmin`) are converted to `T`
/// first and negated as `T`: for [`C64`] that negates the zero imaginary
/// part too, and the sign of that zero reaches the solution bits.
///
/// The Newton step stamps its MOSFETs through none of these: a
/// `MosTable` compiles the fixed MOS write pattern to CSC value indices
/// once per plan and replays it directly.
pub trait Stamp<T: Scalar> {
    /// Number of nodes including ground.
    fn num_nodes(&self) -> usize;

    /// One matrix write.
    fn add_a(&mut self, i: usize, j: usize, v: T);

    /// One right-hand-side write.
    fn add_z(&mut self, i: usize, v: T);

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

    /// Stamps a conductance (a complex admittance, for [`C64`]) between
    /// two nodes.
    fn conductance(&mut self, a: NodeId, b: NodeId, g: T) {
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
    fn current_source(&mut self, p: NodeId, n: NodeId, i: T) {
        if let Some(ip) = self.node_idx(p) {
            self.add_z(ip, -i);
        }
        if let Some(inn) = self.node_idx(n) {
            self.add_z(inn, i);
        }
    }

    /// Stamps a VCCS: current `gm·v(cp,cn)` flowing `p → n`.
    fn vccs(&mut self, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        let gm = T::from(gm);
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
    fn vsource(&mut self, branch: usize, p: NodeId, n: NodeId, v: T) {
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, T::ONE);
            self.add_a(br, i, T::ONE);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -T::ONE);
            self.add_a(br, i, -T::ONE);
        }
        self.add_z(br, v);
    }

    /// Stamps a VCVS `v(p,n) = gain·v(cp,cn)` with the given branch.
    fn vcvs(&mut self, branch: usize, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        let gain = T::from(gain);
        let br = self.branch_idx(branch);
        if let Some(i) = self.node_idx(p) {
            self.add_a(i, br, T::ONE);
            self.add_a(br, i, T::ONE);
        }
        if let Some(i) = self.node_idx(n) {
            self.add_a(i, br, -T::ONE);
            self.add_a(br, i, -T::ONE);
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
        let gmin = T::from(gmin);
        for i in 0..(self.num_nodes() - 1) {
            self.add_a(i, i, gmin);
        }
    }
}

/// Dense MNA system `A·x = z` under assembly: the reference the sparse
/// slot-map assembly is checked against.
#[derive(Debug, Clone)]
pub struct DenseStamper<T> {
    /// Number of nodes including ground.
    n_nodes: usize,
    /// System matrix, row-major `n×n`.
    pub a: Vec<T>,
    /// Right-hand side.
    pub z: Vec<T>,
}

/// The dense real system of a DC/transient Newton step.
pub type RealStamper = DenseStamper<f64>;

/// The dense complex system `G + jωC` of an AC/noise frequency point.
pub type ComplexStamper = DenseStamper<C64>;

impl<T: Scalar> Stamp<T> for DenseStamper<T> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, v: T) {
        self.a[i * self.z.len() + j] += v;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: T) {
        self.z[i] += v;
    }
}

impl<T: Scalar> DenseStamper<T> {
    /// Creates a zeroed system for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        DenseStamper {
            n_nodes: circuit.num_nodes(),
            a: vec![T::ZERO; n * n],
            z: vec![T::ZERO; n],
        }
    }

    /// Zeroes the system for re-assembly.
    pub fn clear(&mut self) {
        self.a.fill(T::ZERO);
        self.z.fill(T::ZERO);
    }
}

/// Write-sequence recorder: one assembly pass through this sink yields the
/// ordered `(row, col)` coordinates of every matrix write, from which
/// `linalg::CscT::from_coordinates` builds the sparse pattern and the
/// stamp→slot map. It records positions only, so one recorder serves
/// either scalar type.
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

impl<T: Scalar> Stamp<T> for RecordStamper {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, i: usize, j: usize, _v: T) {
        self.writes.push((i, j));
    }

    #[inline]
    fn add_z(&mut self, _i: usize, _v: T) {}
}

/// Slot-map stamper: assembles directly into a CSC value array by
/// replaying the recorded write sequence (`values[slots[cursor]] += v`).
/// The borrowed buffers live in a workspace's sparse plan.
#[derive(Debug)]
pub(crate) struct SlotStamper<'a, T> {
    n_nodes: usize,
    /// Per-write CSC value index, in stamp order.
    slots: &'a [u32],
    /// CSC value array under assembly.
    values: &'a mut [T],
    /// Right-hand side.
    z: &'a mut [T],
    /// Index of the next write.
    cursor: usize,
}

impl<'a, T: Scalar> SlotStamper<'a, T> {
    /// Creates a slot stamper over zeroed buffers.
    pub(crate) fn new(
        n_nodes: usize,
        slots: &'a [u32],
        values: &'a mut [T],
        z: &'a mut [T],
    ) -> Self {
        values.fill(T::ZERO);
        z.fill(T::ZERO);
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
    /// recording and the caller must re-record the plan).
    pub(crate) fn complete(&self) -> bool {
        self.cursor == self.slots.len()
    }
}

impl<T: Scalar> Stamp<T> for SlotStamper<'_, T> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, _i: usize, _j: usize, v: T) {
        // A drifted sequence may emit *more* writes than were recorded;
        // swallow the excess (the cursor overrun makes `complete()` report
        // the drift) instead of indexing past the slot map.
        if let Some(&slot) = self.slots.get(self.cursor) {
            self.values[slot as usize] += v;
        }
        self.cursor += 1;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: T) {
        self.z[i] += v;
    }
}

/// Right-hand-side-only sink: matrix writes only advance the cursor, while
/// right-hand-side writes accumulate into a zeroed `z` in pass order. For
/// a recorded sequence — the caller keeps the matrix values of an earlier
/// pass whose matrix inputs were identical (see
/// [`Assemble::constant_matrix_key`]) — `z` comes out bit-identical to a
/// full slot-map pass.
#[derive(Debug)]
pub(crate) struct RhsStamper<'a, T> {
    n_nodes: usize,
    /// Length of the recorded matrix-write sequence.
    writes: usize,
    /// Right-hand side.
    z: &'a mut [T],
    /// Index of the next matrix write.
    cursor: usize,
}

impl<'a, T: Scalar> RhsStamper<'a, T> {
    /// Creates a right-hand-side stamper over a zeroed `z` for a recorded
    /// sequence of `writes` matrix writes.
    pub(crate) fn new(n_nodes: usize, writes: usize, z: &'a mut [T]) -> Self {
        z.fill(T::ZERO);
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

impl<T: Scalar> Stamp<T> for RhsStamper<'_, T> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn add_a(&mut self, _i: usize, _j: usize, _v: T) {
        self.cursor += 1;
    }

    #[inline]
    fn add_z(&mut self, i: usize, v: T) {
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

/// One linearized Newton system, split at the unknown vector: within one
/// Newton solve only the MOS linearizations depend on `x`; every other
/// stamp (gmin loading, linear devices, sources at the solve's
/// time/scale, capacitor companion models) is constant across the solve's
/// iterations. The Newton engine therefore assembles the constant part
/// **once per solve** through [`Assemble::assemble_constant`] — generic
/// over the stamp sink, so the write recorder, the CSC slot map and the
/// right-hand-side replay each get a monomorphized, dispatch-free copy —
/// and per iteration replays only the MOSFETs of [`Assemble::circuit`]
/// through a compiled [`MosTable`]. Implementors capture whatever state
/// the assembly needs (circuit, gmin, source evaluation, transient
/// companion models).
///
/// The constant write sequence must be value-independent (fixed by the
/// topology), so a recorded sequence replays for every candidate.
pub(crate) trait Assemble {
    /// Stamps the x-independent writes: everything but the MOSFETs.
    fn assemble_constant<S: Stamp<f64>>(&mut self, st: &mut S);

    /// The circuit whose MOSFETs form the x-dependent segment.
    fn circuit(&self) -> &Circuit;

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
}

/// Shared assembly walk: stamps every device selected by `filter` (the
/// MOSFETs through [`stamp_mos`]).
fn stamp_resistive_impl<S: Stamp<f64>>(
    circuit: &Circuit,
    x: &[f64],
    sources: SourceEval,
    st: &mut S,
    filter: DeviceFilter,
) {
    for dev in circuit.devices() {
        if let Device::Mosfet { .. } = dev {
            if filter == DeviceFilter::All {
                stamp_mos(dev, x, st);
            }
            continue;
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

/// Terminal positions in a MOSFET's `[d, g, s, b]` quadruple.
const DRAIN: usize = 0;
const GATE: usize = 1;
const SOURCE: usize = 2;
const BULK: usize = 3;

/// A MOSFET's Norton-companion matrix writes, in stamp order, as
/// `(row terminal, column terminal)` pairs: the `gm` VCCS
/// (d,g)+ (d,s)− (s,g)− (s,s)+, the `gds` conductance (d,d)+ (s,s)+ (d,s)−
/// (s,d)−, and the `gmb` VCCS (d,b)+ (d,s)− (s,b)− (s,s)+. A write is
/// present only when both of its terminals are off ground; its value is
/// the matching entry of [`mos_pattern_values`]. The generic walk
/// ([`stamp_mos`], behind the reference assembly) and the compiled replay
/// ([`MosTable`]) both read this one description, so they emit the same
/// writes in the same order.
const MOS_PATTERN: [(usize, usize); 12] = [
    (DRAIN, GATE),
    (DRAIN, SOURCE),
    (SOURCE, GATE),
    (SOURCE, SOURCE),
    (DRAIN, DRAIN),
    (SOURCE, SOURCE),
    (DRAIN, SOURCE),
    (SOURCE, DRAIN),
    (DRAIN, BULK),
    (DRAIN, SOURCE),
    (SOURCE, BULK),
    (SOURCE, SOURCE),
];

/// The value of each [`MOS_PATTERN`] write.
#[inline(always)]
fn mos_pattern_values(e: &MosEval) -> [f64; 12] {
    [
        e.gm, -e.gm, -e.gm, e.gm, e.gds, e.gds, -e.gds, -e.gds, e.gmb, -e.gmb, -e.gmb, e.gmb,
    ]
}

/// Norton-companion current `ieq` of a linearization at
/// `(vgs, vds, vbs)`: i(v) ≈ ieq + gm·vgs + gds·vds + gmb·vbs. It flows
/// d → s through the device, so it leaves the right-hand side as
/// `z[d] −= ieq`, `z[s] += ieq`.
#[inline(always)]
fn mos_ieq(e: &MosEval, vgs: f64, vds: f64, vbs: f64) -> f64 {
    e.id - e.gm * vgs - e.gds * vds - e.gmb * vbs
}

/// Stamps one MOSFET's Norton companion linearized at `x` by walking
/// [`MOS_PATTERN`] through [`Stamp::add_a`]. The device is evaluated by
/// [`crate::mos::eval_mos_stamp`] on its precomputed constants.
#[inline]
fn stamp_mos<S: Stamp<f64>>(dev: &Device, x: &[f64], st: &mut S) {
    let Device::Mosfet {
        d,
        g,
        s,
        b,
        model,
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
    let (vgs, vds, vbs) = (vg - vs, vd - vs, vb - vs);
    let e = crate::mos::eval_mos_stamp(model, consts, vgs, vds, vbs);
    let ieq = mos_ieq(&e, vgs, vds, vbs);
    let idx = [d, g, s, b].map(|&t| st.node_idx(t));
    for (&(r, c), v) in MOS_PATTERN.iter().zip(mos_pattern_values(&e)) {
        if let (Some(i), Some(j)) = (idx[r], idx[c]) {
            st.add_a(i, j, v);
        }
    }
    st.current_source(*d, *s, ieq);
}

/// Sentinel of a [`MosTable`] entry: a ground terminal, or a pattern write
/// that is absent because one of its terminals is ground.
const ABSENT: u32 = u32::MAX;

/// Devices per chunk of the batched [`MosTable::stamp`]: enough
/// independent evaluations to cover the latency of one device's serial
/// chain, few enough that a chunk's intermediates stay in L1 (32 measured
/// slower).
const MOS_CHUNK: usize = 16;

/// One MOSFET's compiled stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MosSlots {
    /// Unknown index of each terminal `[d, g, s, b]`, or [`ABSENT`] for
    /// ground.
    nodes: [u32; 4],
    /// CSC value index of each [`MOS_PATTERN`] write, or [`ABSENT`].
    slots: [u32; 12],
}

/// The x-dependent segment of a sparse Newton plan, compiled: per MOSFET
/// (in device order), its terminal unknowns and the resolved CSC value
/// index of each [`MOS_PATTERN`] write. The table holds topology only —
/// model cards and `MosConsts` are read from the circuit on every replay —
/// so one table serves every candidate and corner of a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MosTable {
    devs: Vec<MosSlots>,
}

impl MosTable {
    /// Appends the coordinates of every MOSFET's present pattern writes to
    /// `writes`, in stamp order, and returns the table with each present
    /// write's slot set to its index in `writes`; [`MosTable::resolve`]
    /// then maps those through the stamp→slot map.
    pub(crate) fn record(circuit: &Circuit, writes: &mut Vec<(usize, usize)>) -> MosTable {
        let devs = circuit
            .mosfets()
            .map(|dev| {
                let Device::Mosfet { d, g, s, b, .. } = dev else {
                    unreachable!("mosfets() yields MOSFETs only");
                };
                let idx = [d, g, s, b].map(|&t| t.checked_sub(1));
                let mut slots = [ABSENT; 12];
                for (slot, &(r, c)) in slots.iter_mut().zip(&MOS_PATTERN) {
                    if let (Some(i), Some(j)) = (idx[r], idx[c]) {
                        *slot = u32::try_from(writes.len()).expect("write index fits u32");
                        writes.push((i, j));
                    }
                }
                MosSlots {
                    nodes: idx.map(|i| {
                        i.map_or(ABSENT, |i| {
                            u32::try_from(i).expect("unknown index fits u32")
                        })
                    }),
                    slots,
                }
            })
            .collect();
        MosTable { devs }
    }

    /// Maps each recorded write index through `slot_map` (the per-write
    /// CSC value index of `linalg::CscMatrix::from_coordinates`).
    pub(crate) fn resolve(&mut self, slot_map: &[u32]) {
        for slot in self.devs.iter_mut().flat_map(|t| &mut t.slots) {
            if *slot != ABSENT {
                *slot = slot_map[*slot as usize];
            }
        }
    }

    /// The columns a replay writes, as a mask over the `n` unknowns: the
    /// terminal columns of every present pattern write. Every other column
    /// of the assembled matrix holds only the constant segment.
    pub(crate) fn column_mask(&self, n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        for t in &self.devs {
            for (&slot, &(_, c)) in t.slots.iter().zip(&MOS_PATTERN) {
                if slot != ABSENT {
                    mask[t.nodes[c] as usize] = true;
                }
            }
        }
        mask
    }

    /// Stamps every MOSFET of `circuit` linearized at `x` on top of the
    /// CSC `values` and right-hand side `z` — write for write what
    /// [`stamp_mos`] emits through a `SlotStamper` over the same slots.
    /// Returns `false`, stamping nothing, when the circuit's MOSFET count
    /// disagrees with the table's.
    ///
    /// The devices are evaluated in chunks of [`MOS_CHUNK`], one
    /// [`MosPhases`] phase over the whole chunk at a time: gather the
    /// terminal voltages and run the bias phase, then `exp`, then the
    /// softplus, then finish each device and write its slots in device
    /// order. One device's phases form a serial chain of `sqrt`, divides,
    /// `exp` and `ln`; within a phase the chunk's devices are independent,
    /// so the core overlaps their latencies. Each device still runs the
    /// scalar operations of [`crate::mos::eval_mos`] in the same order, and
    /// the writes keep the device order, so the bits are those of the
    /// one-device walk.
    pub(crate) fn stamp(
        &self,
        circuit: &Circuit,
        x: &[f64],
        values: &mut [f64],
        z: &mut [f64],
    ) -> bool {
        if circuit.num_mosfets() != self.devs.len() {
            return false;
        }
        let mut mosfets = circuit.mosfets();
        for chunk in self.devs.chunks(MOS_CHUNK) {
            let n = chunk.len();
            let mut bias = [[0.0; 3]; MOS_CHUNK];
            let mut evals = [MosPhases::default(); MOS_CHUNK];
            for ((t, dev), (v, p)) in chunk
                .iter()
                .zip(mosfets.by_ref())
                .zip(bias.iter_mut().zip(&mut evals))
            {
                let Device::Mosfet { model, consts, .. } = dev else {
                    unreachable!("mosfets() yields MOSFETs only");
                };
                let u = t
                    .nodes
                    .map(|i| if i == ABSENT { 0.0 } else { x[i as usize] });
                let vs = u[SOURCE];
                *v = [u[GATE] - vs, u[DRAIN] - vs, u[BULK] - vs];
                *p = MosPhases::bias(model, consts, v[0], v[1], v[2]);
            }
            for p in &mut evals[..n] {
                p.exp();
            }
            for p in &mut evals[..n] {
                p.softplus();
            }
            for ((t, &[vgs, vds, vbs]), p) in chunk.iter().zip(&bias).zip(&evals) {
                let e = p.finish();
                let ieq = mos_ieq(&e, vgs, vds, vbs);
                for (&slot, c) in t.slots.iter().zip(mos_pattern_values(&e)) {
                    if slot != ABSENT {
                        values[slot as usize] += c;
                    }
                }
                if t.nodes[DRAIN] != ABSENT {
                    z[t.nodes[DRAIN] as usize] += -ieq;
                }
                if t.nodes[SOURCE] != ABSENT {
                    z[t.nodes[SOURCE] as usize] += ieq;
                }
            }
        }
        true
    }
}

/// Stamps the *resistive* (memoryless) part of every device, linearized at
/// the unknown vector `x`: the full linearized Newton system that the
/// compiled replay (constant segment plus `MosTable`) must match.
pub fn stamp_resistive_system<S: Stamp<f64>>(
    circuit: &Circuit,
    x: &[f64],
    sources: SourceEval,
    st: &mut S,
) {
    stamp_resistive_impl(circuit, x, sources, st, DeviceFilter::All);
}

/// Stamps only the linear (x-independent) devices — the constant segment
/// of a split assembly. Linear stamps never read the unknown vector.
pub(crate) fn stamp_resistive_linear<S: Stamp<f64>>(
    circuit: &Circuit,
    sources: SourceEval,
    st: &mut S,
) {
    stamp_resistive_impl(circuit, &[], sources, st, DeviceFilter::LinearOnly);
}

/// One small-signal assembly routine, generic over the stamp sink so each
/// destination (write recorder, CSC slot map, dense rows in tests) gets its
/// own monomorphized, dispatch-free copy — the [`C64`] counterpart of
/// [`Assemble`]. Implementors capture the circuit, operating point, and ω;
/// the AC/noise engines call [`AssembleComplex::assemble`] once per
/// frequency point.
pub(crate) trait AssembleComplex {
    /// Stamps the full small-signal system.
    fn assemble<S: Stamp<C64>>(&mut self, st: &mut S);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mos::{MosModel, MosPolarity};
    use crate::netlist::GND;

    #[test]
    fn conductance_stamp_pattern() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R", a, b, 0.5).unwrap(); // g = 2
        let mut st = RealStamper::new(&c);
        stamp_resistive_system(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.a, [2.0, -2.0, -2.0, 2.0]);
    }

    #[test]
    fn grounded_conductance_stamps_diagonal_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R", a, GND, 1.0).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive_system(&c, &[0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.a, [1.0]);
    }

    #[test]
    fn vsource_branch_rows() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(3.0)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive_system(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        // node row gets +1 on branch column; branch row +1 on node column.
        assert_eq!(st.a, [0.0, 1.0, 1.0, 0.0]);
        assert_eq!(st.z[1], 3.0);
    }

    #[test]
    fn source_scaling() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(2.0)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive_system(&c, &[0.0, 0.0], SourceEval::Dc { scale: 0.25 }, &mut st);
        assert_eq!(st.z[1], 0.5);
    }

    #[test]
    fn isource_rhs_signs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_isource("I", a, b, Waveform::Dc(1e-3)).unwrap();
        let mut st = RealStamper::new(&c);
        stamp_resistive_system(&c, &[0.0, 0.0], SourceEval::Dc { scale: 1.0 }, &mut st);
        assert_eq!(st.z[0], -1e-3);
        assert_eq!(st.z[1], 1e-3);
    }

    /// The NMOS card of the spice unit tests.
    pub(crate) fn test_nmos() -> MosModel {
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

    /// A 24-stage RC ladder loaded by diode-connected MOSFETs of card `m`
    /// (26 unknowns: sparse path, compiled MOS table), driven by a supply
    /// pulse with corners at multiples of `tick`.
    pub(crate) fn mos_ladder(tick: f64, m: &MosModel) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource(
            "VDD",
            vdd,
            GND,
            Waveform::pulse(
                0.6,
                1.8,
                8.0 * tick,
                tick,
                2.0 * tick,
                1000.0 * tick,
                f64::INFINITY,
            ),
        )
        .unwrap();
        let mut prev = vdd;
        for i in 0..24 {
            let d = c.node(&format!("d{i}"));
            c.add_resistor(&format!("R{i}"), prev, d, 5e3).unwrap();
            c.add_mosfet(&format!("M{i}"), d, d, GND, GND, m, 4e-6, 0.5e-6, 1.0)
                .unwrap();
            c.add_capacitor(&format!("C{i}"), d, GND, 2e-15).unwrap();
            prev = d;
        }
        c
    }

    /// The constant segment both sides of the equivalence test preload.
    fn stamp_constant<S: Stamp<f64>>(c: &Circuit, st: &mut S) {
        st.load_gmin(1e-12);
        stamp_resistive_linear(c, SourceEval::Dc { scale: 1.0 }, st);
    }

    /// An iterate spread over ±4.5 V, so NMOS and PMOS devices visit the
    /// forward and the drain/source-swapped linearizations, both far
    /// softplus branches and the body-effect clamp.
    fn spread_iterate(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| -4.5 + 9.0 * ((i * 37 + 11) % 23) as f64 / 22.0)
            .collect()
    }

    /// Replaying a compiled [`MosTable`] on top of the preloaded constant
    /// segment gives the same bits as walking [`stamp_mos`] through a
    /// `SlotStamper` over the same slot map, and the MOS writes keep the
    /// classic `vccs(gm)`, `conductance(gds)`, `vccs(gmb)` order.
    fn assert_table_matches_walk(c: &Circuit) {
        let n = c.num_unknowns();
        let nn = c.num_nodes();
        let x = spread_iterate(n);

        let mut rec = RecordStamper::new(c);
        stamp_constant(c, &mut rec);
        let cl = rec.writes.len();
        let mut walk = rec.clone();
        let mut classic = rec.clone();
        for dev in c.mosfets() {
            stamp_mos(dev, &x, &mut walk);
            let Device::Mosfet { d, g, s, b, .. } = *dev else {
                unreachable!()
            };
            Stamp::<f64>::vccs(&mut classic, d, s, g, s, 1.0);
            Stamp::<f64>::conductance(&mut classic, d, s, 1.0);
            Stamp::<f64>::vccs(&mut classic, d, s, b, s, 1.0);
        }
        let mut table = MosTable::record(c, &mut rec.writes);
        assert_eq!(table.devs.len(), c.num_mosfets());
        assert_eq!(rec.writes, walk.writes, "pattern coordinates or presence");
        assert_eq!(rec.writes, classic.writes, "pattern order");

        let (csc, slots) = linalg::CscMatrix::from_coordinates(n, &rec.writes);
        table.resolve(&slots);

        let mut walk_values = vec![0.0; csc.nnz()];
        let mut walk_z = vec![0.0; n];
        let mut st = SlotStamper::new(nn, &slots, &mut walk_values, &mut walk_z);
        stamp_constant(c, &mut st);
        for dev in c.mosfets() {
            stamp_mos(dev, &x, &mut st);
        }
        assert!(st.complete());

        let mut values = vec![0.0; csc.nnz()];
        let mut z = vec![0.0; n];
        let mut st = SlotStamper::new(nn, &slots[..cl], &mut values, &mut z);
        stamp_constant(c, &mut st);
        assert!(st.complete());
        assert!(table.stamp(c, &x, &mut values, &mut z));

        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&walk_values));
        assert_eq!(bits(&z), bits(&walk_z));
        assert!(z.iter().any(|&v| v != 0.0), "the MOS stamps must reach z");
    }

    #[test]
    fn compiled_mos_table_matches_the_generic_stamp_walk() {
        let nmos = test_nmos();
        let pmos = MosModel {
            polarity: MosPolarity::Pmos,
            kp: 80e-6,
            ..test_nmos()
        };
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let nodes: Vec<NodeId> = (0..8).map(|i| c.node(&format!("n{i}"))).collect();
        let [a, b, d, e, f, g, h, k] = nodes[..] else {
            unreachable!()
        };
        c.add_vsource("V1", vdd, GND, Waveform::Dc(1.8)).unwrap();
        for (i, &n) in nodes.iter().enumerate() {
            c.add_resistor(&format!("R{i}"), vdd, n, 10e3).unwrap();
        }
        let (w, l) = (4e-6, 0.5e-6);
        // Source and bulk at ground.
        c.add_mosfet("M1", a, b, GND, GND, &nmos, w, l, 1.0)
            .unwrap();
        // Diode-connected, g = d.
        c.add_mosfet("M2", d, d, GND, GND, &nmos, w, l, 1.0)
            .unwrap();
        // Gate tied to source, both off ground.
        c.add_mosfet("M3", e, f, f, GND, &nmos, w, l, 1.0).unwrap();
        // Drain at ground, bulk off ground.
        c.add_mosfet("M4", GND, g, h, k, &nmos, w, l, 1.0).unwrap();
        // PMOS with source and bulk at the supply.
        c.add_mosfet("M5", a, k, vdd, vdd, &pmos, w, l, 2.0)
            .unwrap();
        assert_table_matches_walk(&c);
        assert_table_matches_walk(&mos_ladder(1e-10, &nmos));

        // 37 devices of both polarities over ten nodes, the supply and
        // ground: two full chunks of the batched replay and a partial one.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource("V1", vdd, GND, Waveform::Dc(1.8)).unwrap();
        let mut pool = vec![GND, vdd];
        pool.extend((0..10).map(|i| c.node(&format!("n{i}"))));
        for (i, &n) in pool[2..].iter().enumerate() {
            c.add_resistor(&format!("R{i}"), vdd, n, 10e3).unwrap();
        }
        for i in 0..37 {
            let t = |a: usize, b: usize| pool[(i * a + b) % pool.len()];
            let card = if i % 3 == 1 { &pmos } else { &nmos };
            let m = 1.0 + (i % 4) as f64;
            c.add_mosfet(
                &format!("M{i}"),
                t(5, 1),
                t(7, 2),
                t(3, 5),
                t(11, 3),
                card,
                w,
                l,
                m,
            )
            .unwrap();
        }
        assert!(c.num_mosfets() > 2 * MOS_CHUNK);
        assert_table_matches_walk(&c);
        // The iterate drives the table through every model branch.
        let x = spread_iterate(c.num_unknowns());
        let mut seen = [false; 7];
        for dev in c.mosfets() {
            let Device::Mosfet {
                d,
                g,
                s,
                b,
                model,
                consts,
                ..
            } = dev
            else {
                unreachable!()
            };
            let vs = node_voltage(&x, *s);
            let [vgs, vds, vbs] = [*g, *d, *b].map(|t| node_voltage(&x, t) - vs);
            let e = crate::mos::eval_mos_stamp(model, consts, vgs, vds, vbs);
            let hits = crate::mos::tests::branches(model, &e, vgs, vds, vbs);
            for (seen, hit) in seen.iter_mut().zip(hits) {
                *seen |= hit;
            }
        }
        assert!(seen.iter().all(|&s| s), "model branches reached: {seen:?}");
    }

    /// The bit pattern of a stamped value.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for C64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    /// One assembly pass, generic over the sink.
    trait Pass<T: Scalar> {
        fn run<S: Stamp<T>>(&mut self, st: &mut S);
    }

    /// The DC system of a circuit linearized at an iterate.
    struct DcPass<'a>(&'a Circuit, Vec<f64>);

    impl Pass<f64> for DcPass<'_> {
        fn run<S: Stamp<f64>>(&mut self, st: &mut S) {
            st.load_gmin(1e-12);
            stamp_resistive_system(self.0, &self.1, SourceEval::Dc { scale: 1.0 }, st);
        }
    }

    impl Pass<C64> for crate::analysis::ac::SmallSignalAssembler<'_> {
        fn run<S: Stamp<C64>>(&mut self, st: &mut S) {
            self.assemble(st);
        }
    }

    /// Replaying a recorded pass through [`SlotStamper`] gives every CSC
    /// value the bits [`DenseStamper`] accumulates at its position on the
    /// same pass, and the same right-hand side; the dense entries outside
    /// the pattern stay zero.
    fn assert_slot_replay_matches_dense<T: Bits>(c: &Circuit, pass: &mut impl Pass<T>) {
        let n = c.num_unknowns();
        let mut rec = RecordStamper::new(c);
        pass.run(&mut rec);
        let (csc, slots) = linalg::CscT::<T>::from_coordinates(n, &rec.writes);
        let mut values = vec![T::ZERO; csc.nnz()];
        let mut z = vec![T::ZERO; n];
        let mut st = SlotStamper::new(c.num_nodes(), &slots, &mut values, &mut z);
        pass.run(&mut st);
        assert!(st.complete());
        let mut dense = DenseStamper::<T>::new(c);
        pass.run(&mut dense);

        let mut pattern = vec![false; n * n];
        for (&(i, j), &slot) in rec.writes.iter().zip(&slots) {
            pattern[i * n + j] = true;
            let (sparse, dense) = (values[slot as usize].bits(), dense.a[i * n + j].bits());
            assert_eq!(sparse, dense, "entry ({i}, {j})");
        }
        for (k, v) in dense.a.iter().enumerate() {
            assert!(
                pattern[k] || v.bits() == [0, 0],
                "entry {k} outside the pattern"
            );
        }
        let bits = |v: &[T]| v.iter().map(|t| t.bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z), bits(&dense.z));
        assert!(values.iter().any(|v| v.bits() != [0, 0]));
    }

    #[test]
    fn slot_replay_matches_the_dense_sink_real_and_complex() {
        let c = mos_ladder(1e-10, &test_nmos());
        let x: Vec<f64> = (0..c.num_unknowns())
            .map(|i| -2.0 + 4.0 * ((i * 37 + 11) % 23) as f64 / 22.0)
            .collect();
        assert_slot_replay_matches_dense(&c, &mut DcPass(&c, x));

        let opts = crate::SimOptions::default();
        let op = crate::op(&c, &opts).unwrap();
        let mut ac = crate::analysis::ac::SmallSignalAssembler {
            circuit: &c,
            op: &op,
            opts: &opts,
            omega: 2.0 * std::f64::consts::PI * 1e8,
        };
        assert_slot_replay_matches_dense(&c, &mut ac);
    }

    #[test]
    fn gmin_loading_touches_node_rows_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V", a, GND, Waveform::Dc(1.0)).unwrap();
        let mut st = RealStamper::new(&c);
        st.load_gmin(1e-9);
        assert_eq!(st.a, [1e-9, 0.0, 0.0, 0.0]);
    }
}
