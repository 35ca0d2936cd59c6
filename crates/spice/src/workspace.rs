//! Reusable solver state for the Newton-Raphson engines.
//!
//! The DC and transient engines linearize and solve the same-sized MNA
//! system every Newton iteration, every gmin/source-stepping retry, and
//! every transient timestep. A [`NewtonWorkspace`] owns all of that state —
//! the recorded sparse plans with their CSC values and [`linalg::SparseLu`]
//! factors, the right-hand side, and the solution scratch vector — so the
//! hot loop performs **zero heap allocations** per iteration.
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
//!    refactorization on every later iteration. The table's terminal
//!    columns are the LU's "may change" mask, so a refactor replays only
//!    the dependent steps ([`linalg::SparseLu::refactor_dependent_into`]):
//!    those on a MOSFET column or reading one. The first refactor after
//!    the constant segment's matrix values were restamped (a new DC
//!    solve, a gmin or source-stepping rung, a step halving, a new
//!    constant-matrix key) replays every step
//!    ([`linalg::SparseLu::refactor_into`]); a timestep whose constant
//!    restamp touches only the right-hand side keeps the partial replay.
//!    Both give the bits of a full replay.
//!
//! The table holds topology only (model cards and `MosConsts` are read
//! from the circuit each iteration), so it stays valid across the
//! candidates and corners a pooled workspace serves.
//!
//! The sparse LU is the only linear solver, at every system size. The
//! plan cache is keyed by [`Circuit::topology_id`], so a pooled workspace
//! handed a *different* same-sized topology records a new plan instead of
//! corrupting results, and a plan whose write sequence no longer matches
//! the circuit at hand is re-recorded from that circuit. A system the
//! sparse LU cannot factor, even with a fresh pivot search, is singular.
//! The frequency-domain [`AcWorkspace`] runs the same pipeline over [`C64`]
//! (one recorded pattern for the whole sweep, no MOS table: the
//! small-signal stamps are linear): the per-session factor-or-refactor
//! step is one generic [`SparseSystem`] shared by both.
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

use linalg::{CscT, Scalar, SparseLuT, C64};

use crate::netlist::Circuit;
use crate::stamp::{Assemble, AssembleComplex, MosTable, RecordStamper, RhsStamper, SlotStamper};

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

/// A recorded sparse plan for one topology: per `(topology, kind)` for the
/// Newton engine, per topology for AC/noise.
#[derive(Debug, Clone)]
struct Plan<S> {
    /// Topology fingerprint the plan was recorded for.
    topo: u64,
    /// Unknown count the plan was recorded for.
    n: usize,
    /// Slot maps and the sparse system.
    state: S,
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
    /// Values outside the LU's column mask were restamped since the last
    /// factorization, so the next refactor replays every step; otherwise
    /// it replays only the dependent ones.
    restamped: bool,
}

impl<T: Scalar> SparseSystem<T> {
    /// Builds the CSC pattern and stamp→slot map of a recorded write
    /// sequence.
    fn new(n: usize, writes: &[(usize, usize)]) -> (Self, Vec<u32>) {
        let (csc, slots) = CscT::from_coordinates(n, writes);
        let sys = SparseSystem {
            csc,
            lu: SparseLuT::new(),
            pivot_session: 0,
            restamped: true,
        };
        (sys, slots)
    }

    /// Factors the assembled values for solve `session`. The first
    /// factorization of a session is a full pivoting one, so the pivot
    /// sequence depends only on the system being solved (bit-identical
    /// results whether or not the workspace was reused); every later one
    /// runs the scan-free refactorization — every step after a restamp
    /// outside the column mask, only the dependent steps otherwise —
    /// falling back to a pivoting factor if a recorded pivot collapses
    /// numerically. Returns `false` when the system is singular.
    fn factor(&mut self, session: u64) -> bool {
        let fresh = self.pivot_session != session || !self.lu.is_factored();
        let restamped = std::mem::take(&mut self.restamped);
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
            let replayed = if restamped {
                self.lu.refactor_into(&self.csc)
            } else {
                self.lu.refactor_dependent_into(&self.csc)
            };
            replayed.is_ok() || self.lu.factor(&self.csc).is_ok()
        };
        if factored {
            self.pivot_session = session;
        }
        factored
    }
}

/// Recorded stamp→slot maps plus the sparse factorization state of a
/// Newton plan.
#[derive(Debug, Clone)]
struct NewtonState {
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

impl NewtonState {
    /// Records the plan of `assemble`'s circuit: the constant segment's
    /// write sequence (one [`Assemble::assemble_constant`] pass), then the
    /// MOSFETs' pattern writes ([`MosTable::record`]) after it, so one CSC
    /// pattern covers both and the slot map splits cleanly at the segment
    /// boundary.
    fn record<A: Assemble>(assemble: &mut A) -> Self {
        let mut rec = RecordStamper::new(assemble.circuit());
        assemble.assemble_constant(&mut rec);
        let cl = rec.writes.len();
        let circuit = assemble.circuit();
        let n = circuit.num_unknowns();
        let mut mos = MosTable::record(circuit, &mut rec.writes);
        let (mut sys, mut slots) = SparseSystem::new(n, &rec.writes);
        mos.resolve(&slots);
        slots.truncate(cl);
        sys.lu.set_column_mask(&mos.column_mask(n));
        NewtonState {
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
    }
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
struct AcState {
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
/// with ω.
#[derive(Debug, Clone)]
pub(crate) struct AcWorkspace {
    /// Right-hand side of the slot-map assembly. Sources are quiesced
    /// there, so it stays zero: each solve brings its own right-hand side
    /// (an AC excitation, or the noise output selector).
    z: Vec<C64>,
    /// Cached plan for the AC/noise pattern.
    plan: Option<Plan<AcState>>,
}

impl AcWorkspace {
    /// Assembles the small-signal system for one frequency point (via
    /// `assemble`) into the cached plan and factors it. The first point of
    /// a solve `session` runs a full pivoting factorization; later points
    /// replay the recorded pivots ([`SparseSystem::factor`]).
    ///
    /// On a plan miss (new topology for this workspace), or when the
    /// cached plan's write sequence drifted from the circuit at hand, one
    /// extra *recorded* assembly pass learns the write sequence and builds
    /// the CSC pattern + slot map from this circuit.
    ///
    /// Returns `false` when the system is singular.
    pub(crate) fn factor_point<A: AssembleComplex>(
        &mut self,
        circuit: &Circuit,
        session: u64,
        assemble: &mut A,
    ) -> bool {
        let (topo, n) = (circuit.topology_id(), circuit.num_unknowns());
        let cached = self.plan.as_ref().is_some_and(|p| p.matches(topo, n));
        if !(cached && self.stamp(circuit, assemble)) {
            let mut rec = RecordStamper::new(circuit);
            assemble.assemble(&mut rec);
            let (sys, slots) = SparseSystem::new(n, &rec.writes);
            let state = AcState { slots, sys };
            self.plan = Some(Plan { topo, n, state });
            // A sequence that does not replay right after its recording
            // leaves no valid system to factor.
            if !self.stamp(circuit, assemble) {
                return false;
            }
        }
        let plan = self.plan.as_mut().expect("plan recorded above");
        plan.state.sys.factor(session)
    }

    /// Replays `assemble` through the cached plan's slot map. Returns
    /// `false` when the write sequence drifted from the recording.
    fn stamp<A: AssembleComplex>(&mut self, circuit: &Circuit, assemble: &mut A) -> bool {
        let state = &mut self.plan.as_mut().expect("plan present").state;
        // Every column moves with ω: the next refactor replays every step.
        state.sys.restamped = true;
        let mut st = SlotStamper::new(
            circuit.num_nodes(),
            &state.slots,
            state.sys.csc.values_mut(),
            &mut self.z,
        );
        assemble.assemble(&mut st);
        st.complete()
    }

    /// Solves the factored point's system `A·x = b` into `x` — one
    /// excitation of an AC sweep.
    pub(crate) fn solve(&mut self, b: &[C64], x: &mut Vec<C64>) -> bool {
        self.plan
            .as_mut()
            .is_some_and(|p| p.state.sys.lu.solve_into(b, x).is_ok())
    }

    /// Solves the factored point's *transposed* system `Aᵀ·y = e` into `y`
    /// — the noise analysis' adjoint solve, sharing the forward
    /// factorization.
    pub(crate) fn solve_transpose(&mut self, e: &[C64], y: &mut Vec<C64>) -> bool {
        self.plan
            .as_mut()
            .is_some_and(|p| p.state.sys.lu.solve_transpose_into(e, y).is_ok())
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
    /// Right-hand side of the system under assembly.
    z: Vec<f64>,
    /// Newton-step solution buffer.
    pub(crate) x_new: Vec<f64>,
    /// Node count (ground included) the buffers are sized for.
    n_nodes: usize,
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
    plans: [Option<Plan<NewtonState>>; 2],
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
            z: vec![0.0; n],
            x_new: vec![0.0; n],
            n_nodes: circuit.num_nodes(),
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
        self.z.len()
    }

    /// Topology fingerprint of the circuit this workspace last targeted
    /// (see [`Circuit::topology_id`]).
    pub fn topology_id(&self) -> u64 {
        self.topo
    }

    /// Re-targets the workspace at `circuit`, resizing the buffers when the
    /// unknown count changed. Sparse plans are keyed by topology and
    /// revalidated lazily, so a later solve on an earlier topology can
    /// still reuse them; the session and solve counters run on, so stale
    /// pivot sequences and constant preloads stay stale.
    pub(crate) fn ensure(&mut self, circuit: &Circuit) {
        let n = circuit.num_unknowns();
        self.z.resize(n, 0.0);
        self.x_new.resize(n, 0.0);
        self.n_nodes = circuit.num_nodes();
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

    /// Starts a new Newton solve: the next [`NewtonWorkspace::newton_step`]
    /// re-assembles the constant segment before replaying the MOS table.
    /// Called once per `newton_loop` invocation — the constant part
    /// (sources at this solve's time/scale, capacitor companions at this
    /// timestep's state) is fixed across the solve's iterations but not
    /// beyond it.
    pub(crate) fn begin_solve(&mut self) {
        self.solve_id = self.solve_id.wrapping_add(1);
    }

    /// The frequency-domain workspace, created (or re-sized) for `circuit`
    /// on demand.
    pub(crate) fn ac_mut(&mut self, circuit: &Circuit) -> &mut AcWorkspace {
        let n = circuit.num_unknowns();
        if self.ac.as_ref().is_none_or(|ac| ac.z.len() != n) {
            self.ac = Some(Box::new(AcWorkspace {
                z: vec![C64::ZERO; n],
                plan: None,
            }));
        }
        self.ac.as_mut().expect("ac workspace ensured above")
    }

    /// One Newton step: assembles the linearized system at `x` through the
    /// `(topology, kind)` plan, factors it for the current session
    /// ([`SparseSystem::factor`]: pivoting on the first step of a solve
    /// session, scan-free refactor on every later iteration, retry, and
    /// timestep), and solves it into [`NewtonWorkspace::x_new`].
    ///
    /// A plan miss records the plan from `assemble` ([`NewtonState::record`]).
    /// So does a cached plan whose constant write count or MOSFET count
    /// drifted from the circuit at hand: it is dropped and re-recorded once,
    /// then the step runs on the new plan.
    ///
    /// Returns `false` when the system is singular.
    pub(crate) fn newton_step<A: Assemble>(
        &mut self,
        kind: StampKind,
        x: &[f64],
        assemble: &mut A,
    ) -> bool {
        let circuit = assemble.circuit();
        let (topo, n) = (circuit.topology_id(), circuit.num_unknowns());
        let cached = self.plans[kind as usize]
            .as_ref()
            .is_some_and(|p| p.matches(topo, n));
        if !(cached && self.stamp(kind, x, assemble)) {
            let state = NewtonState::record(assemble);
            self.plans[kind as usize] = Some(Plan { topo, n, state });
            // A sequence that does not replay right after its recording
            // leaves no valid system to factor.
            if !self.stamp(kind, x, assemble) {
                return false;
            }
        }
        let sys = &mut self.plans[kind as usize]
            .as_mut()
            .expect("plan recorded above")
            .state
            .sys;
        sys.factor(self.session) && sys.lu.solve_into(&self.z, &mut self.x_new).is_ok()
    }

    /// Assembles the system at `x` into the `kind` plan's CSC values and
    /// the right-hand side. Only the MOSFETs are stamped per iteration: the
    /// constant segment is assembled once per Newton solve (the first
    /// iteration after [`NewtonWorkspace::begin_solve`]) and copied in,
    /// then the plan's [`MosTable`] replays each MOSFET's linearization at
    /// `x` straight into its resolved CSC slots. Returns `false` when the
    /// constant write count or the circuit's MOSFET count drifted from the
    /// recording.
    fn stamp<A: Assemble>(&mut self, kind: StampKind, x: &[f64], assemble: &mut A) -> bool {
        let _asm = telemetry::span(telemetry::SpanId::Assembly);
        let state = &mut self.plans[kind as usize]
            .as_mut()
            .expect("plan present")
            .state;
        let pre = &mut state.preload;
        if pre.solve_id != self.solve_id {
            // New Newton solve (new timestep / gmin rung / source scale):
            // re-stamp the constant segment once — only its right-hand
            // side when the matrix inputs are unchanged.
            let key = assemble.constant_matrix_key().map(|k| (self.session, k));
            let complete = if self.rhs_restamp && key.is_some() && key == pre.matrix_key {
                let mut st = RhsStamper::new(self.n_nodes, pre.const_slots.len(), &mut pre.z);
                assemble.assemble_constant(&mut st);
                st.complete()
            } else {
                // The constant columns may move: the next refactor replays
                // every step.
                state.sys.restamped = true;
                let mut st =
                    SlotStamper::new(self.n_nodes, &pre.const_slots, &mut pre.values, &mut pre.z);
                assemble.assemble_constant(&mut st);
                st.complete()
            };
            if !complete {
                return false;
            }
            pre.solve_id = self.solve_id;
            pre.matrix_key = key;
        }
        // Preload the constant part, then replay only the MOS slots.
        state.sys.csc.values_mut().copy_from_slice(&pre.values);
        self.z.copy_from_slice(&pre.z);
        state.mos.stamp(
            assemble.circuit(),
            x,
            state.sys.csc.values_mut(),
            &mut self.z,
        )
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
impl NewtonWorkspace {
    /// The dependent steps and the dimension of the `kind` plan's stored
    /// factorization, once the plan is recorded.
    pub(crate) fn dependent_steps(&self, kind: StampKind) -> Option<(usize, usize)> {
        let lu = &self.plans[kind as usize].as_ref()?.state.sys.lu;
        Some((lu.dependent_steps().len(), lu.dim()))
    }

    /// The steps of the `kind` plan's stored factorization that are
    /// dependent only through the closure — listed, though the column they
    /// factor lies outside the MOS column mask — each with its reciprocal
    /// pivot.
    pub(crate) fn closure_steps(&self, kind: StampKind) -> Vec<(u32, f64)> {
        let plan = self.plans[kind as usize].as_ref().expect("plan recorded");
        let lu = &plan.state.sys.lu;
        let mask = plan.state.mos.column_mask(lu.dim());
        let inv_diag = lu.factor_values().2;
        lu.dependent_steps()
            .iter()
            .filter(|&&k| !mask[lu.step_pattern(k as usize).0])
            .map(|&k| (k, inv_diag[k as usize]))
            .collect()
    }

    /// Makes every later refactorization of the recorded plans replay
    /// every step: an empty column mask marks every column dependent.
    pub(crate) fn replay_every_step(&mut self) {
        for plan in self.plans.iter_mut().flatten() {
            plan.state.sys.lu.set_column_mask(&[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GND;
    use crate::options::SimOptions;
    use crate::stamp::tests::{mos_ladder, test_nmos};
    use crate::waveform::Waveform;

    /// The recorded DC plan of a workspace.
    fn dc_state(ws: &mut NewtonWorkspace) -> &mut NewtonState {
        &mut ws.plans[StampKind::Dc as usize]
            .as_mut()
            .expect("DC plan recorded")
            .state
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// A DC plan whose MOSFET count or constant write count no longer
    /// matches the circuit is re-recorded from that circuit, and the solve
    /// that met the drift gives the bits of a fresh workspace's.
    #[test]
    fn drifted_plan_is_re_recorded_from_the_circuit_at_hand() {
        let c = mos_ladder(1e-10, &test_nmos());
        let mut short = Circuit::new();
        let d = short.node("d");
        short
            .add_mosfet("M0", d, d, GND, GND, &test_nmos(), 4e-6, 0.5e-6, 1.0)
            .unwrap();
        assert_ne!(short.num_mosfets(), c.num_mosfets());
        let opts = SimOptions::default();
        let mut fresh_ws = NewtonWorkspace::new(&c);
        let fresh = crate::op_with_workspace(&c, &opts, None, &mut fresh_ws).unwrap();
        let recorded = dc_state(&mut fresh_ws).clone();

        type Drift = fn(&mut NewtonState, &Circuit);
        let drifts: [(&str, Drift); 2] = [
            ("MOSFET count", |state, short| {
                state.mos = MosTable::record(short, &mut Vec::new());
            }),
            ("constant write count", |state, _| {
                state.preload.const_slots.pop();
            }),
        ];
        for (what, drift) in drifts {
            let mut ws = NewtonWorkspace::new(&c);
            crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
            drift(dc_state(&mut ws), &short);
            let op = crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
            let state = dc_state(&mut ws);
            assert_eq!(state.mos, recorded.mos, "{what}: MOS table re-recorded");
            assert_eq!(
                state.preload.const_slots, recorded.preload.const_slots,
                "{what}: constant slots re-recorded"
            );
            assert_eq!(bits(op.raw()), bits(fresh.raw()), "{what}: same bits");
        }
    }

    /// The AC/noise plan obeys the same rule: a slot map that no longer
    /// replays the circuit's write sequence is re-recorded, and the sweep
    /// keeps its bits.
    #[test]
    fn drifted_ac_plan_is_re_recorded_from_the_circuit_at_hand() {
        let mut c = mos_ladder(1e-10, &test_nmos());
        c.set_ac_mag("VDD", 1.0).unwrap();
        let opts = SimOptions::default();
        let freqs = [1e6, 1e8, 1e10];
        let sweep_bits = |ws: &mut NewtonWorkspace| {
            let op = crate::op_with_workspace(&c, &opts, None, ws).unwrap();
            let sweep = crate::ac_with_workspace(&c, &opts, &op, &freqs, ws).unwrap();
            let v: Vec<C64> = (0..freqs.len()).map(|fi| sweep.voltage(fi, 5)).collect();
            v.iter()
                .flat_map(|v| [v.re, v.im])
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        let mut ws = NewtonWorkspace::new(&c);
        let want = sweep_bits(&mut ws);
        fn slots(ws: &mut NewtonWorkspace) -> &mut Vec<u32> {
            let ac = ws.ac.as_mut().expect("AC workspace");
            &mut ac.plan.as_mut().expect("AC plan recorded").state.slots
        }
        let recorded = slots(&mut ws).len();
        slots(&mut ws).pop();
        assert_eq!(sweep_bits(&mut ws), want);
        assert_eq!(slots(&mut ws).len(), recorded, "slot map re-recorded");
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
        // A 13-node resistor chain with a VCCS across it: a topology no
        // other test builds, so no concurrent test can lease this
        // workspace between the two leases below.
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
        let recorded = |ws: &NewtonWorkspace| {
            ws.plans[StampKind::Dc as usize]
                .as_ref()
                .is_some_and(|p| p.matches(c.topology_id(), c.num_unknowns()))
        };
        {
            let mut ws = lease_workspace(&c);
            crate::op_with_workspace(&c, &opts, None, &mut ws).unwrap();
            assert!(recorded(&ws), "the solve records the chain's DC plan");
        } // returned to the pool
        let ws = lease_workspace(&c);
        assert!(
            recorded(&ws),
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
