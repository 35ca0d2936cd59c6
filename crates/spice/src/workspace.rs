//! Reusable solver state for the Newton-Raphson engines.
//!
//! The DC and transient engines linearize and solve the same-sized MNA
//! system every Newton iteration, every gmin/source-stepping retry, and
//! every transient timestep. A [`NewtonWorkspace`] owns all of that state —
//! the [`RealStamper`], the dense [`linalg::Lu`] factors, the sparse solver
//! state, and the solution scratch vector — so the hot loop performs **zero
//! heap allocations** per iteration. The dense kernel factors the stamped
//! matrix in place ([`crate::stamp::DenseStamper::factor_into`] donates
//! its storage to the factor, an O(1) buffer swap); the AC/noise dense
//! fallback is the same code over [`C64`] ([`ComplexStamper`] into
//! [`linalg::ComplexLu`]).
//!
//! # Sparse pipeline
//!
//! MNA matrices are mostly structural zeros, and their sparsity *pattern*
//! is fixed by the circuit topology: it is identical across Newton
//! iterations, gmin/source-stepping retries, sweep points, transient
//! timesteps, and even across candidates of the same sizing testbench. The
//! workspace exploits this by keeping, per assembly kind (DC-resistive /
//! transient), a cached [`Plan`]:
//!
//! 1. one *recorded* pass learns the write sequence of the constant
//!    (x-independent) segment — gmin, linear devices, sources, capacitor
//!    companions — and appends every MOSFET's fixed 12-write
//!    Norton-companion pattern after it;
//! 2. one [`linalg::CscMatrix::from_coordinates`] call turns both into a
//!    CSC pattern plus a stamp→slot map: the constant segment's slots
//!    drive a `SlotStamper` replay once per Newton solve, and the MOS
//!    writes' slots are compiled into a [`MosTable`] (per MOSFET: 4
//!    terminal unknowns, 12 CSC value indices);
//! 3. every Newton iteration copies in the constant values and replays
//!    the table — model evaluation plus 12 `values[slot] += c` and 2
//!    right-hand-side writes per MOSFET — then [`linalg::SparseLu`] runs
//!    one pivoting factorization per solve session and a scan-free
//!    [`linalg::SparseLu::refactor_into`] on every later iteration.
//!
//! The table holds topology only (model cards and `MosConsts` are read
//! from the circuit each iteration), so it stays valid across the
//! candidates and corners a pooled workspace serves.
//!
//! Whether a circuit uses the sparse or the dense kernel is decided
//! automatically from its assembled density alone, at every size, with
//! the dense kernel kept as the universal fallback. The plan cache is
//! keyed by [`Circuit::topology_id`], so a pooled workspace handed a
//! *different* same-sized topology rebuilds its plans instead of
//! corrupting results. The frequency-domain [`AcWorkspace`] runs the same
//! pipeline over [`C64`] (one recorded pattern for the whole sweep, no MOS
//! table: the small-signal stamps are linear): the density gate and the
//! per-session factor-or-refactor step are one generic [`SparseSystem`]
//! shared by both.
//!
//! # Workspace pool
//!
//! For sizing loops, [`lease_workspace`] checks a workspace out of a
//! process-wide pool keyed by topology fingerprint, so the recorded
//! patterns and factor storage are reused across candidate evaluations —
//! including across the worker threads of `opt`'s parallel population
//! evaluation, where each worker leases its own workspace (bit-identical
//! results are preserved: the pivot sequence is re-derived from each
//! candidate's own first Newton iteration, never inherited from whichever
//! candidate used the workspace before).

use std::sync::Mutex;

use linalg::{ComplexLu, CscT, Lu, Scalar, SparseLuT, C64};

use crate::netlist::Circuit;
use crate::stamp::{
    Assemble, AssembleComplex, ComplexStamper, MosTable, RealStamper, RecordStamper, RhsStamper,
    SlotStamper, Stamp,
};

/// Assembled densities above this fraction keep the dense kernel; the
/// gate is the only kernel choice, at every system size. The measured
/// sparse-refactor-vs-dense-factor crossover sits at ≈0.45 density for
/// n = 16–64 (dense wins 1.1–3× above it, sparse wins up to 3.7× below
/// it); 0.45 takes the sparse side of the band.
///
/// There is no size floor. Below n ≈ 24 a bare sparse refactor only ties
/// a bare dense factor, but the whole sparse Newton step also stamps the
/// constant segment once per solve and replays only the MOS slots, and
/// that step wins on every shipped small testbench. Nominal-design
/// evaluation time, dense kernel forced below 24 unknowns vs density gate
/// alone (per-process medians over 5 interleaved pairs, one thread,
/// 2-CPU x86-64 host; every plan listed is sparse under the gate):
///
/// | testbench       | unknowns: density of each plan      | dense, ms | sparse, ms |
/// |-----------------|-------------------------------------|-----------|------------|
/// | StrongARM latch | 15: DC 0.24, tran 0.31              | 6.8–7.7   | 5.0–7.0    |
/// | CTLE            | 13: DC 0.24, AC 0.30                | 0.18–0.19 | 0.11–0.13  |
/// | LDO             | 10 and 12: DC 0.31/0.24, AC 0.38/0.29 | 0.84–0.86 | 0.53–0.63 |
/// | level shifter   | 11: DC 0.26, tran 0.31 (6 corners)  | 22.1–25.5 | 16.9–18.6  |
/// | inverter chain  | 8: DC 0.36, tran 0.44               | 2.3–2.5   | 1.6–1.8    |
const SPARSE_MAX_DENSITY: f64 = 0.45;

/// Upper bound on pooled workspaces kept alive for reuse.
const POOL_CAP: usize = 64;

/// Which assembly closure a Newton solve runs. The transient system stamps
/// capacitor companion models on top of the resistive stamps, so the two
/// kinds have different write sequences and carry separate sparse plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StampKind {
    /// Resistive (DC operating point / DC sweep) assembly.
    Dc = 0,
    /// Transient assembly (resistive + capacitor companions).
    Tran = 1,
}

/// Which solver kernel a Newton solve should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SolveMode {
    /// Dense [`Lu`] path.
    Dense,
    /// Sparse slot-map assembly + `SparseLu` path.
    Sparse,
}

/// Outcome of one sparse assemble+factor step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseStep {
    /// Factors are ready; solve with [`NewtonWorkspace::sparse_solve`].
    Factored,
    /// The system is numerically singular even after re-pivoting (the
    /// caller falls back to the dense kernel, whose different elimination
    /// order may still survive).
    Singular,
    /// The plan was invalidated (constant write-sequence drift, or a
    /// circuit whose MOSFET count disagrees with the compiled
    /// [`MosTable`]); the caller should fall back to the dense kernel for
    /// the rest of this solve.
    Fallback,
}

/// Which solver kernel factored the current AC/noise frequency point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcKernel {
    /// Sparse complex slot-map assembly + [`linalg::SparseComplexLu`].
    Sparse,
    /// Dense [`ComplexStamper`] + [`ComplexLu`] fallback.
    Dense,
}

/// A cached kernel decision + state for one topology: per
/// `(topology, kind)` for the Newton engine, per topology for AC/noise.
#[derive(Debug, Clone)]
struct Plan<S> {
    /// Topology fingerprint the plan was recorded for.
    topo: u64,
    /// Unknown count the plan was recorded for.
    n: usize,
    /// Sparse state, or `None` when the dense kernel was selected.
    sparse: Option<S>,
}

impl<S> Plan<S> {
    /// True if the plan was recorded for this topology and size.
    fn matches(&self, topo: u64, n: usize) -> bool {
        self.topo == topo && self.n == n
    }
}

/// The sparse system of a plan, in either scalar type: CSC pattern and
/// values, the sparse LU, and the pooling determinism boundary.
#[derive(Debug, Clone)]
struct SparseSystem<T: Scalar> {
    /// The MNA system in CSC form (pattern fixed, values per assembly).
    csc: CscT<T>,
    /// Symbolic + numeric LU state.
    lu: SparseLuT<T>,
    /// Solve session of the last *pivoting* factorization. A new session
    /// (new candidate/analysis handed to this workspace) forces one fresh
    /// pivot selection so results never depend on which candidate used the
    /// workspace before; within a session — across Newton iterations, gmin
    /// and source-stepping retries, transient timesteps, and the frequency
    /// points of one AC sweep / noise analysis — the pivot sequence is
    /// reused by the scan-free refactorization.
    pivot_session: u64,
}

impl<T: Scalar> SparseSystem<T> {
    /// The density gate: builds the CSC pattern and stamp→slot map of a
    /// recorded write sequence, or returns `None` when the assembled
    /// density keeps the dense kernel (see [`SPARSE_MAX_DENSITY`]).
    fn gate(n: usize, writes: &[(usize, usize)]) -> Option<(Self, Vec<u32>)> {
        let (csc, slots) = CscT::from_coordinates(n, writes);
        let density = csc.nnz() as f64 / (n * n) as f64;
        if density > SPARSE_MAX_DENSITY {
            return None;
        }
        let sys = SparseSystem {
            csc,
            lu: SparseLuT::new(),
            pivot_session: 0,
        };
        Some((sys, slots))
    }

    /// Factors the assembled values for solve `session`. The first
    /// factorization of a session is a full pivoting one, so the pivot
    /// sequence depends only on the system being solved (bit-identical
    /// results whether or not the workspace was reused); every later one
    /// runs the scan-free refactorization, falling back to a pivoting
    /// factor if a recorded pivot collapses numerically. Returns `false`
    /// when the system is singular under the sparse elimination order.
    fn factor(&mut self, session: u64) -> bool {
        let fresh = self.pivot_session != session || !self.lu.is_factored();
        telemetry::record(
            if fresh {
                telemetry::Metric::SparseFactors
            } else {
                telemetry::Metric::SparseRefactors
            },
            1,
        );
        let factored = if fresh {
            let _f = telemetry::span(telemetry::SpanId::Factor);
            self.lu.factor(&self.csc).is_ok()
        } else {
            let _f = telemetry::span(telemetry::SpanId::Refactor);
            self.lu.refactor_into(&self.csc).is_ok() || self.lu.factor(&self.csc).is_ok()
        };
        if factored {
            self.pivot_session = session;
        }
        factored
    }
}

/// Recorded stamp→slot map plus the sparse factorization state of a Newton
/// plan.
#[derive(Debug, Clone)]
struct SparseState {
    /// Constant-segment preload: the x-independent writes are assembled
    /// once per Newton solve and copied in before each iteration's MOS
    /// replay.
    preload: PreloadState,
    /// The x-dependent (MOS) segment, compiled to CSC value indices and
    /// replayed on top of the preload every iteration.
    mos: MosTable,
    /// The MNA system and its factorization.
    sys: SparseSystem<f64>,
}

/// The constant (x-independent) segment of the assembly: slot map,
/// pre-assembled CSC values and right-hand side. Refreshed once per Newton
/// solve — every transient timestep re-stamps its sources and capacitor
/// companions here exactly once, and the per-iteration [`MosTable`] replay
/// touches only the MOS slots on top of a copy of these buffers. When the
/// solve's [`Assemble::constant_matrix_key`] matches the one `values` was
/// stamped under (same session, hence same circuit), only `z` is
/// re-stamped.
#[derive(Debug, Clone)]
struct PreloadState {
    /// Per-write CSC value index of the constant segment, in stamp order.
    const_slots: Vec<u32>,
    /// CSC value array holding only the constant contributions.
    values: Vec<f64>,
    /// Right-hand side of the constant contributions.
    z: Vec<f64>,
    /// [`NewtonWorkspace::solve_id`] the buffers were assembled for.
    solve_id: u64,
    /// `(session, key)` `values` was stamped under; `None` when the
    /// assembly gave no key.
    matrix_key: Option<(u64, [u64; 2])>,
}

/// Recorded complex stamp→slot map plus the sparse factorization state of
/// the AC/noise plan. AC and noise assemble the *same* matrix (source
/// `ac_mag` values only touch the right-hand side), so one plan serves
/// both analyses.
#[derive(Debug, Clone)]
struct AcSparseState {
    /// Per-write CSC value index, in stamp order.
    slots: Vec<u32>,
    /// The small-signal system `G + jωC` (pattern fixed, values
    /// re-assembled per frequency point) and its factorization.
    sys: SparseSystem<C64>,
}

/// Preallocated state for the frequency-domain analyses (AC sweeps and the
/// noise adjoint solver) on one circuit topology. Lives inside
/// [`NewtonWorkspace`] (created on first AC/noise use), so the process-wide
/// topology-keyed pool shares it across candidate evaluations exactly like
/// the real-valued Newton state.
///
/// Per sweep the rhythm is: one recorded assembly pass learns the complex
/// write sequence (cache hit for a pooled topology), the first frequency
/// point runs a pivoting sparse factorization, and every subsequent point
/// pays only slot-map assembly plus the scan-free refactorization — the
/// pattern of `G + jωC` is fixed per topology, only the values change
/// with ω. The dense [`ComplexLu`]
/// path remains the universal fallback (dense-by-density systems,
/// write-sequence drift, sparse-singular points): it factors the stamped
/// matrix in place, donating its storage instead of copying it.
#[derive(Debug, Clone)]
pub(crate) struct AcWorkspace {
    /// Dense fallback state, created on the first frequency point that
    /// actually runs the dense kernel — sparse-selected topologies never
    /// allocate the two O(n²) complex buffers.
    dense: Option<Box<DenseAcState>>,
    /// Right-hand side of the sparse slot-map assembly. Sources are
    /// quiesced there, so it stays zero: each solve brings its own
    /// right-hand side (an AC excitation, or the noise output selector).
    z: Vec<C64>,
    /// Unknown count the buffers are sized for.
    n: usize,
    /// Cached sparse plan for the AC/noise pattern.
    plan: Option<Plan<AcSparseState>>,
}

/// The dense fallback kernel's buffers: the system under assembly and the
/// complex LU factor storage (no per-point matrix clone or copy).
#[derive(Debug, Clone)]
struct DenseAcState {
    st: ComplexStamper,
    clu: ComplexLu,
}

impl AcWorkspace {
    /// Creates an AC workspace sized for `circuit`.
    fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        AcWorkspace {
            dense: None,
            z: vec![C64::ZERO; n],
            n,
            plan: None,
        }
    }

    /// Assembles the small-signal system for one frequency point (via
    /// `assemble`) and factors it, picking the sparse kernel when the
    /// cached plan selected it and falling back to the dense kernel
    /// otherwise. The first point of a solve `session` runs a full
    /// pivoting factorization; later points replay the recorded pivots
    /// ([`SparseSystem::factor`]).
    ///
    /// On a plan miss (new topology for this workspace) one extra
    /// *recorded* assembly pass learns the write sequence and builds the
    /// CSC pattern + slot map; sparse vs dense is selected by assembled
    /// density exactly like the Newton engine.
    ///
    /// Returns the kernel that factored the point, or `Err(())` when the
    /// system is singular under both eliminations.
    pub(crate) fn factor_point<A: AssembleComplex>(
        &mut self,
        circuit: &Circuit,
        session: u64,
        assemble: &mut A,
    ) -> Result<AcKernel, ()> {
        let topo = circuit.topology_id();
        let n = circuit.num_unknowns();
        if !self.plan.as_ref().is_some_and(|p| p.matches(topo, n)) {
            let mut rec = RecordStamper::new(circuit);
            assemble.assemble(&mut rec);
            let sparse =
                SparseSystem::gate(n, &rec.writes).map(|(sys, slots)| AcSparseState { slots, sys });
            self.plan = Some(Plan { topo, n, sparse });
        }
        let plan = self.plan.as_mut().expect("plan ensured above");
        if let Some(state) = plan.sparse.as_mut() {
            let complete = {
                let mut st = SlotStamper::new(
                    circuit.num_nodes(),
                    &state.slots,
                    state.sys.csc.values_mut(),
                    &mut self.z,
                );
                assemble.assemble(&mut st);
                st.complete()
            };
            if !complete {
                // Write-sequence drift (should not happen for a
                // fingerprint-matched topology): demote the plan to the
                // dense kernel — the topology/n key stays cached, so later
                // points and sweeps go straight to the dense path instead
                // of re-recording every call.
                plan.sparse = None;
            } else if state.sys.factor(session) {
                return Ok(AcKernel::Sparse);
            }
            // A point that is singular under the sparse elimination order
            // may still survive the dense elimination below.
        }
        let dense = self.dense.get_or_insert_with(|| {
            Box::new(DenseAcState {
                st: ComplexStamper::new(circuit),
                clu: ComplexLu::new(n),
            })
        });
        dense.st.clear();
        assemble.assemble(&mut dense.st);
        // Donates the stamped storage (an O(1) swap); the next point's
        // `clear` + `assemble` rebuild it from scratch anyway.
        dense.st.factor_into(&mut dense.clu).map_err(|_| ())?;
        Ok(AcKernel::Dense)
    }

    /// Solves the factored point's system `A·x = b` into `x` — one
    /// excitation of an AC sweep.
    pub(crate) fn solve(&mut self, kernel: AcKernel, b: &[C64], x: &mut Vec<C64>) -> bool {
        match kernel {
            AcKernel::Sparse => {
                let Some(state) = self.plan.as_mut().and_then(|p| p.sparse.as_mut()) else {
                    return false;
                };
                state.sys.lu.solve_into(b, x).is_ok()
            }
            AcKernel::Dense => {
                let Some(d) = self.dense.as_mut() else {
                    return false;
                };
                d.clu.solve_into(b, x).is_ok()
            }
        }
    }

    /// Solves the factored point's *transposed* system `Aᵀ·y = e` into `y`
    /// — the noise analysis' adjoint solve, sharing the forward
    /// factorization.
    pub(crate) fn solve_transpose(
        &mut self,
        kernel: AcKernel,
        e: &[C64],
        y: &mut Vec<C64>,
    ) -> bool {
        match kernel {
            AcKernel::Sparse => {
                let Some(state) = self.plan.as_mut().and_then(|p| p.sparse.as_mut()) else {
                    return false;
                };
                state.sys.lu.solve_transpose_into(e, y).is_ok()
            }
            AcKernel::Dense => {
                let Some(d) = self.dense.as_mut() else {
                    return false;
                };
                d.clu.solve_transpose_into(e, y).is_ok()
            }
        }
    }

    /// True if the cached plan for `topo` selected the sparse kernel
    /// (diagnostics/tests).
    fn uses_sparse(&self, topo: u64) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| p.topo == topo && p.sparse.is_some())
    }
}

/// Preallocated state for repeated Newton solves on one circuit topology.
///
/// # Example
///
/// ```
/// use spice::{Circuit, NewtonWorkspace, SimOptions, Waveform, GND};
///
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.add_vsource("V1", a, GND, Waveform::Dc(2.0)).unwrap();
/// c.add_resistor("R1", a, GND, 1e3).unwrap();
/// let mut ws = NewtonWorkspace::new(&c);
/// // Repeated solves reuse the same buffers.
/// for _ in 0..3 {
///     let op = spice::op_with_workspace(&c, &SimOptions::default(), None, &mut ws).unwrap();
///     assert!((op.voltage(a) - 2.0).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NewtonWorkspace {
    /// The MNA system under assembly.
    pub(crate) st: RealStamper,
    /// Dense LU factors of the linearized system.
    pub(crate) lu: Lu,
    /// Newton-step solution buffer.
    pub(crate) x_new: Vec<f64>,
    /// Unknown count the buffers are sized for.
    n: usize,
    /// Topology fingerprint of the circuit last ensured.
    topo: u64,
    /// Monotonic solve-session id (see [`SparseSystem::pivot_session`]).
    session: u64,
    /// Monotonic Newton-solve id: bumped once per `newton_loop` call (each
    /// DC attempt, each gmin/source-stepping rung, each transient
    /// timestep). The refresh boundary of [`PreloadState`] — the constant
    /// assembly segment is valid for exactly one solve.
    solve_id: u64,
    /// Cached sparse plans, indexed by [`StampKind`].
    plans: [Option<Plan<SparseState>>; 2],
    /// Allows the right-hand-side-only constant restamp (see
    /// [`PreloadState`]). Always on outside tests, which turn it off to
    /// compare against full restamps.
    pub(crate) rhs_restamp: bool,
    /// Frequency-domain (AC/noise) state, created on first use so
    /// DC/transient-only circuits never pay for the complex buffers.
    ac: Option<Box<AcWorkspace>>,
}

impl NewtonWorkspace {
    /// Creates a workspace sized for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        NewtonWorkspace {
            st: RealStamper::new(circuit),
            lu: Lu::new(n),
            x_new: vec![0.0; n],
            n,
            topo: circuit.topology_id(),
            session: 1,
            solve_id: 1,
            plans: [None, None],
            rhs_restamp: true,
            ac: None,
        }
    }

    /// Number of unknowns the workspace is currently sized for.
    pub fn num_unknowns(&self) -> usize {
        self.n
    }

    /// Topology fingerprint of the circuit this workspace last targeted
    /// (see [`Circuit::topology_id`]).
    pub fn topology_id(&self) -> u64 {
        self.topo
    }

    /// Re-targets the workspace at `circuit`, rebuilding buffers only when
    /// the unknown count changed. Sparse plans are keyed by topology and
    /// revalidated lazily, so they survive this when the topology matches.
    pub(crate) fn ensure(&mut self, circuit: &Circuit) {
        let n = circuit.num_unknowns();
        if n != self.n || self.st.num_nodes() != circuit.num_nodes() {
            let plans = std::mem::take(&mut self.plans);
            let session = self.session;
            let solve_id = self.solve_id;
            let rhs_restamp = self.rhs_restamp;
            *self = NewtonWorkspace::new(circuit);
            // Keep the recorded plans: they are fingerprint-keyed, so a
            // later solve on the old topology can still reuse them. The
            // session and solve counters survive so stale pivot sequences
            // and constant preloads stay stale.
            self.plans = plans;
            self.session = session;
            self.solve_id = solve_id;
            self.rhs_restamp = rhs_restamp;
        }
        self.topo = circuit.topology_id();
    }

    /// Starts a new solve session: the next sparse factorization of each
    /// pattern re-derives its pivot sequence from the incoming values.
    /// Called by every analysis body (`op_with_workspace`,
    /// `transient_from_op`, the AC sweep, `noise_with_workspace`), i.e.
    /// whenever the workspace may have been
    /// handed a different candidate's circuit — the determinism boundary
    /// for workspace pooling.
    pub(crate) fn begin_session(&mut self) {
        self.session = self.session.wrapping_add(1);
    }

    /// Current solve-session id (the pivot-reuse boundary).
    pub(crate) fn session(&self) -> u64 {
        self.session
    }

    /// Starts a new Newton solve: the next [`NewtonWorkspace::sparse_step`]
    /// of a split plan re-assembles the constant segment before replaying
    /// the varying slots. Called once per `newton_loop` invocation — the
    /// constant part (sources at this solve's time/scale, capacitor
    /// companions at this timestep's state) is fixed across the solve's
    /// iterations but not beyond it.
    pub(crate) fn begin_solve(&mut self) {
        self.solve_id = self.solve_id.wrapping_add(1);
    }

    /// The frequency-domain workspace, created (or re-sized) for `circuit`
    /// on demand.
    pub(crate) fn ac_mut(&mut self, circuit: &Circuit) -> &mut AcWorkspace {
        let n = circuit.num_unknowns();
        if self.ac.as_ref().is_none_or(|ac| ac.n != n) {
            self.ac = Some(Box::new(AcWorkspace::new(circuit)));
        }
        self.ac.as_mut().expect("ac workspace ensured above")
    }

    /// True if the cached AC/noise plan for the current topology selected
    /// the sparse complex kernel (diagnostics/tests).
    pub fn uses_sparse_ac(&self) -> bool {
        self.ac.as_ref().is_some_and(|ac| ac.uses_sparse(self.topo))
    }

    /// Decides (and caches) the solver kernel for `(circuit, kind)`. On a
    /// cache miss this records the constant segment's write sequence (one
    /// [`Assemble::assemble_constant`] pass), appends the MOSFETs' pattern
    /// writes ([`MosTable::record`]), builds the CSC pattern and slot map
    /// from both in one go, and selects sparse vs dense by density.
    pub(crate) fn prepare<A: Assemble>(
        &mut self,
        circuit: &Circuit,
        kind: StampKind,
        assemble: &mut A,
    ) -> SolveMode {
        let topo = circuit.topology_id();
        let n = circuit.num_unknowns();
        let plan = &mut self.plans[kind as usize];
        if !plan.as_ref().is_some_and(|p| p.matches(topo, n)) {
            // Record the constant segment, then the MOS pattern after it,
            // so one CSC pattern covers both and the slot map splits
            // cleanly at the segment boundary.
            let mut rec = RecordStamper::new(circuit);
            assemble.assemble_constant(&mut rec);
            let cl = rec.writes.len();
            let mut mos = MosTable::record(circuit, &mut rec.writes);
            let sparse = SparseSystem::gate(n, &rec.writes).map(|(sys, mut slots)| {
                mos.resolve(&slots);
                slots.truncate(cl);
                SparseState {
                    preload: PreloadState {
                        values: vec![0.0; sys.csc.nnz()],
                        const_slots: slots,
                        z: vec![0.0; n],
                        solve_id: 0,
                        matrix_key: None,
                    },
                    mos,
                    sys,
                }
            });
            *plan = Some(Plan { topo, n, sparse });
        }
        if plan.as_ref().is_some_and(|p| p.sparse.is_some()) {
            SolveMode::Sparse
        } else {
            SolveMode::Dense
        }
    }

    /// One sparse Newton step: slot-map assembly at `x`, then the
    /// session's numeric factorization ([`SparseSystem::factor`]: pivoting
    /// on the first step of a solve session, scan-free refactor on every
    /// later iteration, retry, and timestep).
    ///
    /// Assembly stamps only the MOSFETs here: the constant segment is
    /// assembled once per Newton solve (the first iteration after
    /// [`NewtonWorkspace::begin_solve`]) and copied in, then the plan's
    /// [`MosTable`] replays each MOSFET's linearization at `x` straight
    /// into its resolved CSC slots. A constant segment whose write count
    /// drifted from the recording, or a circuit whose MOSFET count
    /// disagrees with the table, drops the plan and returns
    /// [`SparseStep::Fallback`].
    pub(crate) fn sparse_step<A: Assemble>(
        &mut self,
        kind: StampKind,
        x: &[f64],
        assemble: &mut A,
    ) -> SparseStep {
        let Some(plan) = self.plans[kind as usize].as_mut() else {
            return SparseStep::Fallback;
        };
        let Some(state) = plan.sparse.as_mut() else {
            return SparseStep::Fallback;
        };
        let asm = telemetry::span(telemetry::SpanId::Assembly);
        let pre = &mut state.preload;
        if pre.solve_id != self.solve_id {
            // New Newton solve (new timestep / gmin rung / source scale):
            // re-stamp the constant segment once — only its right-hand
            // side when the matrix inputs are unchanged.
            let key = assemble.constant_matrix_key().map(|k| (self.session, k));
            let ok = if self.rhs_restamp && key.is_some() && key == pre.matrix_key {
                let mut st =
                    RhsStamper::new(self.st.num_nodes(), pre.const_slots.len(), &mut pre.z);
                assemble.assemble_constant(&mut st);
                st.complete()
            } else {
                let mut st = SlotStamper::new(
                    self.st.num_nodes(),
                    &pre.const_slots,
                    &mut pre.values,
                    &mut pre.z,
                );
                assemble.assemble_constant(&mut st);
                st.complete()
            };
            if !ok {
                // The write sequence drifted from the recording (should
                // not happen for a fingerprint-matched topology); drop the
                // plan and let the caller run the dense kernel.
                self.plans[kind as usize] = None;
                return SparseStep::Fallback;
            }
            pre.solve_id = self.solve_id;
            pre.matrix_key = key;
        }
        // Preload the constant part, then replay only the MOS slots.
        state.sys.csc.values_mut().copy_from_slice(&pre.values);
        self.st.z.copy_from_slice(&pre.z);
        if !state.mos.stamp(
            assemble.circuit(),
            x,
            state.sys.csc.values_mut(),
            &mut self.st.z,
        ) {
            // The circuit's MOSFET count disagrees with the table.
            self.plans[kind as usize] = None;
            return SparseStep::Fallback;
        }
        drop(asm);
        if state.sys.factor(self.session) {
            SparseStep::Factored
        } else {
            SparseStep::Singular
        }
    }

    /// Solves the sparse-assembled system into the step buffer. Returns
    /// `false` if no sparse factorization is available.
    pub(crate) fn sparse_solve(&mut self, kind: StampKind) -> bool {
        let Some(state) = self.plans[kind as usize]
            .as_mut()
            .and_then(|p| p.sparse.as_mut())
        else {
            return false;
        };
        state.sys.lu.solve_into(&self.st.z, &mut self.x_new).is_ok()
    }

    /// True if the `(current topology, kind)` pair resolved to the sparse
    /// kernel (diagnostics/tests).
    pub fn uses_sparse(&self, kind_is_tran: bool) -> bool {
        let idx = usize::from(kind_is_tran);
        self.plans[idx]
            .as_ref()
            .is_some_and(|p| p.topo == self.topo && p.sparse.is_some())
    }
}

/// Process-wide pool of workspaces, keyed by topology fingerprint.
static POOL: Mutex<Vec<NewtonWorkspace>> = Mutex::new(Vec::new());

/// A [`NewtonWorkspace`] checked out of the process-wide pool; returns to
/// the pool on drop. Dereferences to the workspace.
#[derive(Debug)]
pub struct PooledWorkspace {
    ws: Option<NewtonWorkspace>,
}

impl std::ops::Deref for PooledWorkspace {
    type Target = NewtonWorkspace;
    fn deref(&self) -> &NewtonWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace {
    fn deref_mut(&mut self) -> &mut NewtonWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            let mut pool = POOL
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            put(&mut pool, ws);
        }
    }
}

/// Takes the pooled workspace built for `(topo, n)` out of `pool`, keeping
/// the others in the order they were returned (oldest first).
fn take(pool: &mut Vec<NewtonWorkspace>, topo: u64, n: usize) -> Option<NewtonWorkspace> {
    let i = pool
        .iter()
        .position(|w| w.topo == topo && w.num_unknowns() == n)?;
    Some(pool.remove(i))
}

/// Returns `ws` to `pool`. FIFO eviction: at capacity the returning
/// workspace displaces the oldest entry, so long-running processes that
/// cycle through many topologies keep pooling the ones currently in use
/// instead of pinning whichever came first.
fn put(pool: &mut Vec<NewtonWorkspace>, ws: NewtonWorkspace) {
    if pool.len() >= POOL_CAP {
        pool.remove(0);
    }
    pool.push(ws);
}

/// Checks a workspace out of the process-wide pool, preferring one whose
/// recorded solver state (stamp→slot maps, factor storage) was built for
/// the same circuit topology. Used by every analysis entry point that is
/// not handed an explicit workspace, and by the sizing testbenches so
/// population evaluation reuses simulator state across candidates — on one
/// thread or many, without changing any result (see the module docs).
pub fn lease_workspace(circuit: &Circuit) -> PooledWorkspace {
    let topo = circuit.topology_id();
    let n = circuit.num_unknowns();
    let reused = take(
        &mut POOL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
        topo,
        n,
    );
    telemetry::record(
        if reused.is_some() {
            telemetry::Metric::WorkspaceHits
        } else {
            telemetry::Metric::WorkspaceMisses
        },
        1,
    );
    let mut ws = reused.unwrap_or_else(|| NewtonWorkspace::new(circuit));
    ws.ensure(circuit);
    PooledWorkspace { ws: Some(ws) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GND;
    use crate::options::SimOptions;
    use crate::stamp::tests::{mos_ladder, test_nmos};
    use crate::stamp::{stamp_resistive_linear, stamp_resistive_system, SourceEval, Stamp};
    use crate::waveform::Waveform;

    /// A plain DC assembly: gmin loading plus the resistive stamps.
    struct Resistive<'a>(&'a Circuit);

    impl Assemble for Resistive<'_> {
        fn assemble<S: Stamp<f64>>(&mut self, x: &[f64], st: &mut S) {
            st.load_gmin(1e-12);
            stamp_resistive_system(self.0, x, SourceEval::Dc { scale: 1.0 }, st);
        }

        fn assemble_constant<S: Stamp<f64>>(&mut self, st: &mut S) {
            st.load_gmin(1e-12);
            stamp_resistive_linear(self.0, SourceEval::Dc { scale: 1.0 }, st);
        }

        fn circuit(&self) -> &Circuit {
            self.0
        }
    }

    /// Replaces the DC plan's compiled MOS table with one recorded from
    /// `other`, whose MOSFET count differs from the plan's circuit.
    fn plant_foreign_table(ws: &mut NewtonWorkspace, other: &Circuit) {
        let state = ws.plans[StampKind::Dc as usize]
            .as_mut()
            .and_then(|p| p.sparse.as_mut())
            .expect("sparse DC plan");
        state.mos = MosTable::record(other, &mut Vec::new());
    }

    #[test]
    fn mos_count_drift_falls_back_to_the_dense_kernel() {
        let c = mos_ladder(1e-10, &test_nmos());
        let mut short = Circuit::new();
        let d = short.node("d");
        short
            .add_mosfet("M0", d, d, GND, GND, &test_nmos(), 4e-6, 0.5e-6, 1.0)
            .unwrap();
        assert_ne!(short.num_mosfets(), c.num_mosfets());
        let opts = SimOptions::default();
        let sparse_op =
            crate::op_with_workspace(&c, &opts, None, &mut NewtonWorkspace::new(&c)).unwrap();

        // The step itself reports the drift and drops the plan.
        let mut ws = NewtonWorkspace::new(&c);
        let x0 = vec![0.0; c.num_unknowns()];
        let mode = ws.prepare(&c, StampKind::Dc, &mut Resistive(&c));
        assert_eq!(mode, SolveMode::Sparse);
        ws.begin_solve();
        let step = ws.sparse_step(StampKind::Dc, &x0, &mut Resistive(&c));
        assert_eq!(step, SparseStep::Factored);
        plant_foreign_table(&mut ws, &short);
        ws.begin_solve();
        let step = ws.sparse_step(StampKind::Dc, &x0, &mut Resistive(&c));
        assert_eq!(step, SparseStep::Fallback);
        assert!(!ws.uses_sparse(false), "a drifted plan must be dropped");

        // A whole solve over a drifted plan finishes on the dense kernel.
        let mut ws = NewtonWorkspace::new(&c);
        crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
        assert!(ws.uses_sparse(false), "the ladder's DC plan is sparse");
        plant_foreign_table(&mut ws, &short);
        let dense_op = crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
        assert!(!ws.uses_sparse(false), "the solve must have left the plan");
        for node in 1..c.num_nodes() {
            let (a, b) = (dense_op.voltage(node), sparse_op.voltage(node));
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "node {node}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn workspace_adapts_to_circuit_growth() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let mut ws = NewtonWorkspace::new(&c);
        assert_eq!(ws.num_unknowns(), c.num_unknowns());
        let b = c.node("b");
        c.add_resistor("R2", a, b, 1e3).unwrap();
        c.add_resistor("R3", b, GND, 1e3).unwrap();
        ws.ensure(&c);
        assert_eq!(ws.num_unknowns(), c.num_unknowns());
        assert_eq!(ws.topology_id(), c.topology_id());
    }

    #[test]
    fn pool_reuses_matching_topology() {
        // A 13-node resistor chain with a VCCS across it: sparse, and a
        // topology no other test builds, so no concurrent test can lease
        // this workspace between the two leases below.
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..13).map(|i| c.node(&format!("pool_n{i}"))).collect();
        c.add_vsource("V1", nodes[0], GND, Waveform::Dc(1.0))
            .unwrap();
        for (i, w) in nodes.windows(2).enumerate() {
            c.add_resistor(&format!("R{i}"), w[0], w[1], 1e3).unwrap();
        }
        c.add_resistor("RL", nodes[12], GND, 1e3).unwrap();
        c.add_vccs("G1", nodes[9], GND, nodes[3], GND, 1e-4)
            .unwrap();
        let opts = SimOptions::default();
        {
            let mut ws = lease_workspace(&c);
            crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
            assert!(ws.uses_sparse(false), "the chain's DC plan is sparse");
        } // returned to the pool
        let ws = lease_workspace(&c);
        assert!(
            ws.uses_sparse(false),
            "the re-leased workspace must carry the recorded plan"
        );
    }

    #[test]
    fn pool_evicts_the_oldest_entry() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        let n = c.num_unknowns();
        let tagged = |topo: u64| {
            let mut ws = NewtonWorkspace::new(&c);
            ws.topo = topo;
            ws
        };
        let mut pool = Vec::new();
        for topo in 0..POOL_CAP as u64 {
            put(&mut pool, tagged(topo));
        }
        // Taking the oldest entry and returning it makes it the newest; a
        // further return at capacity then evicts entry 1, now the oldest.
        let ws = take(&mut pool, 0, n).expect("pooled");
        assert!(take(&mut pool, 0, n).is_none());
        put(&mut pool, ws);
        put(&mut pool, tagged(1000));
        let topos: Vec<u64> = pool.iter().map(NewtonWorkspace::topology_id).collect();
        let expect: Vec<u64> = (2..POOL_CAP as u64).chain([0, 1000]).collect();
        assert_eq!(topos, expect);
    }
}
