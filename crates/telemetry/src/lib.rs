//! Zero-cost-when-disabled telemetry plane for the whole workspace.
//!
//! Every production crate reports into this one: hierarchical **spans**
//! (`run → generation → candidate → corner → analysis → solve →
//! factor/gemm`) with RAII guards and monotonic-clock timing, plus
//! **counters and log2-bucket histograms** ([`Metric`]) for the solver,
//! grid and training internals. Three **sinks** render the result: a
//! pretty summary ([`Summary`], absorbed into `opt`'s `RunReport`), a
//! JSONL event stream, and Chrome `trace_event` JSON loadable in
//! `chrome://tracing` or Perfetto — selected by the `DNNOPT_TRACE`
//! environment variable (`summary`, `jsonl[:path]`, `chrome:<path>`).
//!
//! # Zero-cost contract
//!
//! The plane follows the same discipline as `spice::fault`:
//!
//! - **Disabled** (the default): every instrumentation site costs exactly
//!   one relaxed-ordering atomic load ([`enabled`]) and branches away.
//!   `BENCH_baseline.json` is recorded with the hooks compiled in to pin
//!   this.
//! - **Enabled**: spans read the monotonic clock and counters do relaxed
//!   atomic adds into a per-worker-slot shard — no locks on the hot path
//!   (the per-slot event buffers take an uncontended mutex only when an
//!   event sink is active). Telemetry reads clocks but **never feeds
//!   numerics**: optimization histories are bit-identical with tracing on
//!   or off at any thread count (`tests/telemetry.rs`).
//!
//! # Threading
//!
//! Aggregation is sharded by worker slot: the evaluation grid's threads
//! (`opt::parallel`) tag themselves with [`set_thread_slot`], any other
//! thread is slot 0, and all increments go to the owning shard — disjoint
//! cache lines, no contention. Shards are merged by
//! [`snapshot`]/[`finish`] into one [`Summary`]; span events carry the
//! slot as the Chrome `tid`, so grid workers' spans interleave correctly
//! in the trace viewer. A slot names a position in the grid, not an OS
//! thread: each batch spawns fresh threads that take slots `1..T` again.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

mod hist;
mod sink;

pub use hist::{bucket_floor, bucket_of, Histogram, HIST_BUCKETS};
pub use sink::{MetricStat, SpanStat, Summary};

// ---------------------------------------------------------------------------
// The enable gate.

/// Gate not yet initialized from the environment.
const UNINIT: u8 = 0;
/// Telemetry off: instrumentation sites cost one atomic load.
const OFF: u8 = 1;
/// Telemetry on.
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// True when an event sink (JSONL/Chrome) is collecting span events, so
/// span guards know whether to buffer begin/end records.
static EVENTS: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any. Written by [`install`], read by [`finish`].
static SINK: Mutex<Option<SinkKind>> = Mutex::new(None);

/// Where [`finish`] sends the collected trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkKind {
    /// Aggregates only: no event buffering; [`finish`] returns the merged
    /// [`Summary`] for the caller to print (the `RunReport` path).
    Summary,
    /// One JSON object per span event plus metric/meta lines, written to
    /// the given file, or to stderr when `None`.
    Jsonl(Option<String>),
    /// Chrome `trace_event` JSON array written to the given file.
    Chrome(String),
}

/// Whether telemetry is currently collecting. The branch every
/// instrumentation site takes: one relaxed atomic load once initialized
/// (the first call lazily reads `DNNOPT_TRACE`).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_slow(),
    }
}

#[cold]
fn init_slow() -> bool {
    install(sink_from_env());
    STATE.load(Ordering::Relaxed) == ON
}

/// Parses `DNNOPT_TRACE`: `summary` (aggregates only), `jsonl[:path]`
/// (event stream), `chrome:<path>` (trace viewer JSON). Unset, empty,
/// `0` or `off` disable the plane; any other value falls back to
/// `summary` so a typo degrades to the cheapest mode instead of
/// aborting a run.
pub fn sink_from_env() -> Option<SinkKind> {
    let v = std::env::var("DNNOPT_TRACE").ok()?;
    match v.as_str() {
        "" | "0" | "off" => None,
        "jsonl" => Some(SinkKind::Jsonl(None)),
        s => {
            if let Some(path) = s.strip_prefix("jsonl:") {
                Some(SinkKind::Jsonl(Some(path.to_string())))
            } else if let Some(path) = s.strip_prefix("chrome:") {
                Some(SinkKind::Chrome(path.to_string()))
            } else {
                Some(SinkKind::Summary)
            }
        }
    }
}

/// Installs (or, with `None`, removes) the trace sink programmatically,
/// overriding whatever `DNNOPT_TRACE` said. Used by tests and benches;
/// normal runs go through the lazy environment path in [`enabled`].
pub fn install(sink: Option<SinkKind>) {
    let events = matches!(sink, Some(SinkKind::Jsonl(_)) | Some(SinkKind::Chrome(_)));
    let on = sink.is_some();
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    EVENTS.store(events, Ordering::Relaxed);
    STATE.store(if on { ON } else { OFF }, Ordering::Release);
}

/// Initializes the plane from `DNNOPT_TRACE` right now (idempotent; the
/// first instrumentation site would do it lazily anyway).
pub fn init_from_env() {
    if STATE.load(Ordering::Relaxed) == UNINIT {
        install(sink_from_env());
    }
}

// ---------------------------------------------------------------------------
// Clock and thread slots.

/// Monotonic nanoseconds since the first telemetry call in the process.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The telemetry clock (monotonic nanoseconds, process-relative), for
/// instrumentation sites that measure cross-thread latencies — e.g. the
/// evaluation grid stamps each worker's spawn call so the worker can
/// histogram its start latency. Only meaningful while telemetry is
/// enabled.
pub fn clock_ns() -> u64 {
    now_ns()
}

/// Shards: one per grid worker slot (slot 0 is the grid's caller and any
/// thread that never set a slot), with the last shard shared by any
/// overflow slots.
pub(crate) const MAX_SLOTS: usize = 33;

thread_local! {
    static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Current span nesting depth on this thread.
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Tags the current thread with its grid worker slot so its counters land
/// in the slot's shard and its span events carry the slot as Chrome `tid`.
/// Called by every thread of an `opt::parallel` grid map as it starts its
/// share; the caller runs slot 0.
pub fn set_thread_slot(slot: usize) {
    SLOT.with(|c| c.set(slot.min(MAX_SLOTS - 1)));
}

fn slot() -> usize {
    SLOT.with(|c| c.get())
}

/// Current span nesting depth on the calling thread (0 outside any span).
/// Exposed for the nesting-invariant tests.
pub fn current_depth() -> u32 {
    DEPTH.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Metrics.

/// Every counter/histogram the workspace records. Fixed at compile time so
/// per-slot shards are plain arrays and recording is a relaxed atomic add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Newton iterations per solve (`spice` DC/transient kernels).
    NewtonIterations,
    /// Gmin-stepping ladder escalations (one per gmin rung retried).
    GminSteps,
    /// Source-stepping ladder escalations (one per source scale retried).
    SourceSteps,
    /// Transient step halvings.
    StepHalvings,
    /// Full pivoting sparse factorizations (fresh session).
    SparseFactors,
    /// Scan-free sparse refactorizations (`refactor_into` or
    /// `refactor_dependent_into`), one per replay.
    SparseRefactors,
    /// Workspace-pool checkouts that reused a pooled workspace.
    WorkspaceHits,
    /// Workspace-pool checkouts that built a workspace from scratch.
    WorkspaceMisses,
    /// Floating-point operations per GEMM call (`2·m·n·k`).
    GemmFlops,
    /// Worker count per threaded GEMM dispatch. Nothing records it any
    /// more: GEMM runs serially on the calling thread, so the count is
    /// always 0. It stays because the sizing-run benchmark reads it for
    /// `linalg.gemm_threaded_calls`; removing it waits for a change to
    /// that benchmark.
    GemmSplitWidth,
    /// Nanoseconds from a grid worker's spawn call to its first claim
    /// (spawned slots only; the caller starts at once).
    PoolDispatchNs,
    /// Nanoseconds a grid slot spent on its share of one batch.
    PoolBusyNs,
    /// Deterministic fault-plane injections that fired.
    FaultsInjected,
    /// MLP training steps (one fused forward/backward/update).
    TrainSteps,
    /// Supernodes detected per sparse symbolic plan. Nothing records it
    /// any more: the blocked sparse replay that detected them is gone, so
    /// the count is always 0. It stays because the sizing-run benchmark
    /// reads it for `linalg.sparse_supernodes`; removing it waits for a
    /// change to that benchmark.
    SparseSupernodes,
    /// Sparse numeric-path dispatch decisions that picked the blocked
    /// replay. Nothing records it any more: the flat scalar replay is the
    /// only sparse numeric path, so the count is always 0. It stays
    /// because the sizing-run benchmark reads it for
    /// `linalg.sparse_blocked_dispatch`; removing it waits for a change to
    /// that benchmark.
    SparseBlockedDispatch,
    /// Fill-explosion-guard bailouts in the minimum-degree ordering: the
    /// elimination-clique simulation exceeded its fill budget and the
    /// ordering fell back to the natural order (trading factorization
    /// fill for ordering time). Worth investigating when a workload
    /// triggers it systematically.
    SparseFillGuardFallbacks,
}

/// Number of [`Metric`] variants.
pub const NUM_METRICS: usize = 17;

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; NUM_METRICS] = [
        Metric::NewtonIterations,
        Metric::GminSteps,
        Metric::SourceSteps,
        Metric::StepHalvings,
        Metric::SparseFactors,
        Metric::SparseRefactors,
        Metric::WorkspaceHits,
        Metric::WorkspaceMisses,
        Metric::GemmFlops,
        Metric::GemmSplitWidth,
        Metric::PoolDispatchNs,
        Metric::PoolBusyNs,
        Metric::FaultsInjected,
        Metric::TrainSteps,
        Metric::SparseSupernodes,
        Metric::SparseBlockedDispatch,
        Metric::SparseFillGuardFallbacks,
    ];

    /// Stable snake_case name (JSONL field, summary row).
    pub fn label(self) -> &'static str {
        match self {
            Metric::NewtonIterations => "newton_iterations",
            Metric::GminSteps => "gmin_steps",
            Metric::SourceSteps => "source_steps",
            Metric::StepHalvings => "step_halvings",
            Metric::SparseFactors => "sparse_factors",
            Metric::SparseRefactors => "sparse_refactors",
            Metric::WorkspaceHits => "workspace_hits",
            Metric::WorkspaceMisses => "workspace_misses",
            Metric::GemmFlops => "gemm_flops",
            Metric::GemmSplitWidth => "gemm_split_width",
            Metric::PoolDispatchNs => "pool_dispatch_ns",
            Metric::PoolBusyNs => "pool_busy_ns",
            Metric::FaultsInjected => "faults_injected",
            Metric::TrainSteps => "train_steps",
            Metric::SparseSupernodes => "sparse_supernodes",
            Metric::SparseBlockedDispatch => "sparse_blocked_dispatch",
            Metric::SparseFillGuardFallbacks => "sparse_fill_guard_fallbacks",
        }
    }
}

/// Records one observation of `m` (count += 1, sum += v, log2 bucket += 1)
/// into the calling thread's shard. Pure counters record `v = 1`. Costs
/// one atomic load when telemetry is disabled.
#[inline]
pub fn record(m: Metric, v: u64) {
    if !enabled() {
        return;
    }
    let sh = &SHARDS[slot()];
    let i = m as usize;
    sh.metric_count[i].fetch_add(1, Ordering::Relaxed);
    sh.metric_sum[i].fetch_add(v, Ordering::Relaxed);
    sh.metric_hist[i][hist::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Spans.

/// Every span the workspace opens, from the whole optimizer run down to a
/// single sparse factorization. Fixed at compile time for the same reason
/// as [`Metric`]; the hierarchy is enforced by call sites, not the enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanId {
    /// One full optimizer run: `opt::Optimizer::run`, which every
    /// optimizer shares, opens it with the budget as its argument.
    Run,
    /// One optimizer iteration/generation inside a run.
    Generation,
    /// One batch handed to the population evaluator.
    EvalBatch,
    /// One worker slot's share of a parallel fan-out (`opt::parallel`).
    GridSlot,
    /// One candidate's evaluation.
    Candidate,
    /// One PVT corner of a candidate.
    Corner,
    /// One analysis unit of a corner (the deepest grid level).
    Analysis,
    /// One circuit testbench body (`circuits`).
    Testbench,
    /// One DC operating-point solve, recovery ladder included (`spice`).
    Op,
    /// One AC sweep, every excitation of it included (`spice`).
    Ac,
    /// One noise analysis (`spice`).
    Noise,
    /// One transient from a given operating point (`spice`).
    Tran,
    /// One Newton solve (`spice` DC/transient kernel).
    Solve,
    /// Matrix assembly/stamping for one Newton iteration.
    Assembly,
    /// One pivoting sparse factorization.
    Factor,
    /// One scan-free sparse refactorization.
    Refactor,
    /// One blocked GEMM at or above the parallel work cutoff.
    Gemm,
    /// One critic training pass.
    CriticTrain,
    /// One actor training pass.
    ActorTrain,
    /// One GP regressor fit.
    GpFit,
    /// Instant marker: a deterministic fault injection fired.
    Fault,
}

/// Number of [`SpanId`] variants.
pub const NUM_SPANS: usize = 21;

impl SpanId {
    /// Every span id, in declaration order.
    pub const ALL: [SpanId; NUM_SPANS] = [
        SpanId::Run,
        SpanId::Generation,
        SpanId::EvalBatch,
        SpanId::GridSlot,
        SpanId::Candidate,
        SpanId::Corner,
        SpanId::Analysis,
        SpanId::Testbench,
        SpanId::Op,
        SpanId::Ac,
        SpanId::Noise,
        SpanId::Tran,
        SpanId::Solve,
        SpanId::Assembly,
        SpanId::Factor,
        SpanId::Refactor,
        SpanId::Gemm,
        SpanId::CriticTrain,
        SpanId::ActorTrain,
        SpanId::GpFit,
        SpanId::Fault,
    ];

    /// Stable name (Chrome event name, JSONL field, summary row).
    pub fn label(self) -> &'static str {
        match self {
            SpanId::Run => "run",
            SpanId::Generation => "generation",
            SpanId::EvalBatch => "eval_batch",
            SpanId::GridSlot => "grid_slot",
            SpanId::Candidate => "candidate",
            SpanId::Corner => "corner",
            SpanId::Analysis => "analysis",
            SpanId::Testbench => "testbench",
            SpanId::Op => "op",
            SpanId::Ac => "ac",
            SpanId::Noise => "noise",
            SpanId::Tran => "tran",
            SpanId::Solve => "solve",
            SpanId::Assembly => "assembly",
            SpanId::Factor => "factor",
            SpanId::Refactor => "refactor",
            SpanId::Gemm => "gemm",
            SpanId::CriticTrain => "critic_train",
            SpanId::ActorTrain => "actor_train",
            SpanId::GpFit => "gp_fit",
            SpanId::Fault => "fault",
        }
    }
}

/// A buffered span event (JSONL/Chrome sinks only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub ts_ns: u64,
    /// Argument attached to the span (`u64::MAX` = none).
    pub arg: u64,
    pub id: SpanId,
    /// `'B'`, `'E'` or `'I'` (Chrome phase).
    pub ph: u8,
    pub tid: u8,
}

/// RAII guard returned by [`span`]: records duration (and, with an event
/// sink, begin/end events) when dropped. A no-op when telemetry was
/// disabled at open.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    id: SpanId,
    start_ns: u64,
    arg: u64,
    active: bool,
}

/// Opens a span with no argument. See [`span_with`].
#[inline]
pub fn span(id: SpanId) -> Span {
    span_with(id, u64::MAX)
}

/// Opens a span carrying an argument (candidate/corner/analysis index,
/// worker slot, …) shown in the trace viewer. Costs one atomic load when
/// telemetry is disabled. Guards must nest: a span opened inside another
/// must drop first (ordinary Rust scoping guarantees this).
#[inline]
pub fn span_with(id: SpanId, arg: u64) -> Span {
    if !enabled() {
        return Span {
            id,
            start_ns: 0,
            arg,
            active: false,
        };
    }
    let start_ns = now_ns();
    let depth = DEPTH.with(|c| {
        let d = c.get() + 1;
        c.set(d);
        d
    });
    let sh = &SHARDS[slot()];
    sh.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    if EVENTS.load(Ordering::Relaxed) {
        sh.push_event(Event {
            ts_ns: start_ns,
            arg,
            id,
            ph: b'B',
            tid: slot() as u8,
        });
    }
    Span {
        id,
        start_ns,
        arg,
        active: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        DEPTH.with(|c| c.set(c.get().saturating_sub(1)));
        let sh = &SHARDS[slot()];
        let i = self.id as usize;
        sh.span_count[i].fetch_add(1, Ordering::Relaxed);
        sh.span_ns[i].fetch_add(end_ns - self.start_ns, Ordering::Relaxed);
        if EVENTS.load(Ordering::Relaxed) {
            sh.push_event(Event {
                ts_ns: end_ns,
                arg: self.arg,
                id: self.id,
                ph: b'E',
                tid: slot() as u8,
            });
        }
    }
}

/// Emits an instant event (a point-in-time marker, e.g. a fault-plane
/// injection) and counts it under the span id. Costs one atomic load when
/// telemetry is disabled.
#[inline]
pub fn instant(id: SpanId, arg: u64) {
    if !enabled() {
        return;
    }
    let sh = &SHARDS[slot()];
    sh.span_count[id as usize].fetch_add(1, Ordering::Relaxed);
    if EVENTS.load(Ordering::Relaxed) {
        sh.push_event(Event {
            ts_ns: now_ns(),
            arg,
            id,
            ph: b'I',
            tid: slot() as u8,
        });
    }
}

// ---------------------------------------------------------------------------
// Per-slot shards.

/// Cap on buffered events per shard (~12 MB at 24 B/event): long traced
/// runs stop buffering instead of exhausting memory, and the overflow is
/// reported as `dropped` in the summary and sink metadata.
const EVENT_CAP: usize = 1 << 19;

pub(crate) struct Shard {
    pub(crate) metric_count: [AtomicU64; NUM_METRICS],
    pub(crate) metric_sum: [AtomicU64; NUM_METRICS],
    pub(crate) metric_hist: [[AtomicU64; HIST_BUCKETS]; NUM_METRICS],
    pub(crate) span_count: [AtomicU64; NUM_SPANS],
    pub(crate) span_ns: [AtomicU64; NUM_SPANS],
    pub(crate) max_depth: AtomicU64,
    pub(crate) dropped: AtomicU64,
    /// Only the owning thread pushes; [`finish`]/[`reset`] drain. The lock
    /// is therefore uncontended on the hot path.
    pub(crate) events: Mutex<Vec<Event>>,
}

impl Shard {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const Z: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [AtomicU64; HIST_BUCKETS] = [Z; HIST_BUCKETS];
        Shard {
            metric_count: [Z; NUM_METRICS],
            metric_sum: [Z; NUM_METRICS],
            metric_hist: [ROW; NUM_METRICS],
            span_count: [Z; NUM_SPANS],
            span_ns: [Z; NUM_SPANS],
            max_depth: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    fn push_event(&self, ev: Event) {
        let mut buf = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() >= EVENT_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.push(ev);
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)] // array-init seed
const EMPTY_SHARD: Shard = Shard::new();
pub(crate) static SHARDS: [Shard; MAX_SLOTS] = [EMPTY_SHARD; MAX_SLOTS];

// ---------------------------------------------------------------------------
// Export.

/// Merges every shard into one [`Summary`] without draining events or
/// touching the sink. Cheap enough to call mid-run.
pub fn snapshot() -> Summary {
    sink::merge_shards(&SHARDS)
}

/// Zeroes all aggregates and drops all buffered events. Test isolation
/// only — concurrent recorders may interleave, so call it quiesced.
pub fn reset() {
    for sh in &SHARDS {
        for a in sh
            .metric_count
            .iter()
            .chain(&sh.metric_sum)
            .chain(sh.metric_hist.iter().flatten())
            .chain(&sh.span_count)
            .chain(&sh.span_ns)
        {
            a.store(0, Ordering::Relaxed);
        }
        sh.max_depth.store(0, Ordering::Relaxed);
        sh.dropped.store(0, Ordering::Relaxed);
        sh.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Flushes the installed sink: merges all shards, drains buffered events,
/// writes the JSONL/Chrome output if one was selected, and returns the
/// merged [`Summary`] (`None` when telemetry is disabled). Aggregates are
/// left in place so repeated snapshots stay monotone; events are drained.
pub fn finish() -> Option<Summary> {
    if STATE.load(Ordering::Relaxed) != ON {
        return None;
    }
    let summary = snapshot();
    let mut events: Vec<Event> = Vec::new();
    for sh in &SHARDS {
        events.append(&mut sh.events.lock().unwrap_or_else(|e| e.into_inner()));
    }
    events.sort_by_key(|e| e.ts_ns);
    let sink = SINK.lock().unwrap_or_else(|e| e.into_inner()).clone();
    match sink {
        Some(SinkKind::Jsonl(path)) => {
            if let Err(e) = sink::write_jsonl(path.as_deref(), &events, &summary) {
                eprintln!("telemetry: failed to write JSONL trace: {e}");
            }
        }
        Some(SinkKind::Chrome(path)) => {
            if let Err(e) = sink::write_chrome(&path, &events, &summary) {
                eprintln!("telemetry: failed to write Chrome trace: {e}");
            }
        }
        Some(SinkKind::Summary) | None => {}
    }
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global telemetry state.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_plane_records_nothing() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(None);
        reset();
        record(Metric::NewtonIterations, 5);
        {
            let _s = span(SpanId::Solve);
        }
        assert!(!enabled());
        let sum = snapshot();
        assert!(sum.spans.is_empty());
        assert!(sum.metrics.is_empty());
        assert!(finish().is_none());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Some(SinkKind::Summary));
        reset();
        assert_eq!(current_depth(), 0);
        {
            let _run = span(SpanId::Run);
            assert_eq!(current_depth(), 1);
            for g in 0..3 {
                let _gen = span_with(SpanId::Generation, g);
                assert_eq!(current_depth(), 2);
            }
        }
        assert_eq!(current_depth(), 0);
        let sum = snapshot();
        assert_eq!(sum.span_count(SpanId::Run), 1);
        assert_eq!(sum.span_count(SpanId::Generation), 3);
        assert!(sum.max_depth >= 2);
        install(None);
        reset();
    }

    #[test]
    fn metrics_land_in_histograms() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Some(SinkKind::Summary));
        reset();
        for v in [1u64, 2, 3, 900] {
            record(Metric::NewtonIterations, v);
        }
        let sum = snapshot();
        let h = sum.metric(Metric::NewtonIterations);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 906);
        assert_eq!(h.buckets[bucket_of(1)], 1);
        assert_eq!(h.buckets[bucket_of(2)], 2); // 2 and 3 share a bucket
        assert_eq!(h.buckets[bucket_of(900)], 1);
        install(None);
        reset();
    }

    #[test]
    fn event_sink_buffers_balanced_events() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Some(SinkKind::Jsonl(None)));
        reset();
        {
            let _a = span(SpanId::Candidate);
            let _b = span(SpanId::Corner);
            instant(SpanId::Fault, 7);
        }
        let begins: usize = SHARDS
            .iter()
            .map(|sh| {
                sh.events
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|e| e.ph == b'B')
                    .count()
            })
            .sum();
        let ends: usize = SHARDS
            .iter()
            .map(|sh| {
                sh.events
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|e| e.ph == b'E')
                    .count()
            })
            .sum();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        install(None);
        reset();
    }

    #[test]
    fn env_parsing_covers_the_matrix() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("DNNOPT_TRACE", "summary");
        assert_eq!(sink_from_env(), Some(SinkKind::Summary));
        std::env::set_var("DNNOPT_TRACE", "jsonl:/tmp/x.jsonl");
        assert_eq!(
            sink_from_env(),
            Some(SinkKind::Jsonl(Some("/tmp/x.jsonl".into())))
        );
        std::env::set_var("DNNOPT_TRACE", "chrome:/tmp/x.json");
        assert_eq!(
            sink_from_env(),
            Some(SinkKind::Chrome("/tmp/x.json".into()))
        );
        std::env::set_var("DNNOPT_TRACE", "off");
        assert_eq!(sink_from_env(), None);
        std::env::remove_var("DNNOPT_TRACE");
        assert_eq!(sink_from_env(), None);
    }
}
