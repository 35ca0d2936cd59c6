//! Parallel population evaluation must be a pure wall-clock optimization:
//! for every optimizer that fans simulations out over worker threads, the
//! recorded history — designs, spec vectors, FoMs, feasibility flags —
//! must be bit-identical to a fully serial run.
//!
//! This includes the simulator's workspace pooling: circuit problems lease
//! `NewtonWorkspace`s from `spice`'s topology-keyed pool, so which
//! candidate inherits which workspace (and its recorded sparse patterns /
//! factor storage) depends on thread count and scheduling. The
//! [`SparseLadder`] problem exercises exactly that machinery — its MNA
//! systems run the sparse stamp→slot kernels, DC and AC alike — and its
//! histories must still be bit-identical serial vs parallel. So must those
//! of the StrongARM latch, whose small (15-unknown) systems run the same
//! sparse kernels.

use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    parallel, AnalysisSpec, DifferentialEvolution, Fom, Optimizer, RandomSearch, RunResult,
    SizingProblem, SpecResult, StopPolicy,
};
use spice::{Circuit, SimOptions, Waveform, GND};

/// The `examples/quickstart.rs` problem: minimize "power" x0+x1 subject to
/// a "gain" constraint x0·x1 ≥ 0.2.
struct ToyAmp;

impl SizingProblem for ToyAmp {
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.05; 2], vec![1.0; 2])
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        SpecResult {
            failure: None,
            objective: x[0] + x[1],
            constraints: vec![0.2 - x[0] * x[1]],
        }
        .into()
    }
    fn name(&self) -> &str {
        "toy-amp"
    }
}

/// A real-simulator problem: a 30-stage diode-connected-NMOS ladder whose
/// MNA system (32 unknowns) runs the sparse stamp→slot pipeline through
/// pool-leased workspaces — the machinery whose reuse across candidates
/// must never leak between them. The evaluation also runs an AC sweep and
/// a noise analysis through the same pooled workspace, so the complex
/// pattern-shared kernel (slot-map assembly, per-sweep pivot re-derivation,
/// adjoint transpose solves) is under the same bit-identity contract.
struct SparseLadder;

impl SparseLadder {
    fn build_at(x: &[f64], vdd: f64) -> Circuit {
        let nmos = spice::MosModel {
            polarity: spice::MosPolarity::Nmos,
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
        let vdd_node = c.node("vdd");
        // Unit AC magnitude on the supply: the AC sweep measures supply
        // ripple transfer down the ladder.
        c.add_vsource_ac("VDD", vdd_node, GND, Waveform::Dc(vdd), 1.0)
            .unwrap();
        let mut prev = vdd_node;
        for i in 0..30 {
            let d = c.node(&format!("d{i}"));
            c.add_resistor(&format!("R{i}"), prev, d, 2e3 + 6e3 * x[1])
                .unwrap();
            c.add_mosfet(
                &format!("M{i}"),
                d,
                d,
                GND,
                GND,
                &nmos,
                (1.0 + 9.0 * x[0]) * 1e-6,
                0.5e-6,
                1.0,
            )
            .unwrap();
            prev = d;
        }
        c
    }
}

impl SparseLadder {
    /// The full measurement suite (DC + AC + noise through one pooled
    /// workspace) at a given supply — shared by the nominal problem and
    /// the corner-indexed wrapper below.
    fn evaluate_at(x: &[f64], vdd: f64) -> SpecResult {
        let ckt = Self::build_at(x, vdd);
        let mut ws = spice::lease_workspace(&ckt);
        let Ok(op) = spice::op_with_workspace(&ckt, &SimOptions::default(), None, &mut ws) else {
            return SpecResult::failed(1);
        };
        let mid = ckt.find_node("d14").unwrap();
        let end = ckt.find_node("d29").unwrap();
        // AC + noise through the same pooled workspace: the sparse complex
        // kernel's per-sweep pivot re-derivation and the adjoint transpose
        // solve both feed raw solved values into the recorded history.
        let freqs = [1e3, 1e6, 1e9];
        let Ok(sweep) =
            spice::ac_with_workspace(&ckt, &SimOptions::default(), &op, &freqs, &mut ws)
        else {
            return SpecResult::failed(1);
        };
        let ripple = sweep.voltage(2, end).abs();
        let Ok(nres) = spice::noise_with_workspace(
            &ckt,
            &SimOptions::default(),
            &op,
            end,
            GND,
            &freqs,
            &mut ws,
        ) else {
            return SpecResult::failed(1);
        };
        // Raw solved voltages: any last-ulp difference between candidates
        // sharing (or not sharing) a pooled workspace shows up here.
        SpecResult {
            failure: None,
            objective: op.voltage(end) + ripple + 1e3 * nres.total_rms(),
            constraints: vec![0.9 - op.voltage(mid)],
        }
    }
}

impl SizingProblem for SparseLadder {
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; 2], vec![1.0; 2])
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        Self::evaluate_at(x, 1.8).into()
    }
    fn name(&self) -> &str {
        "sparse-ladder"
    }
}

/// The [`SparseLadder`] with a three-corner supply plane: every candidate
/// expands into the candidate×corner unit grid inside
/// `opt::Evaluator::evaluate_batch`, each corner leasing pooled
/// workspaces for the *same* topology — exactly the reuse pattern whose
/// thread/corner assignment must never show up in the results.
struct CorneredLadder;

const LADDER_SUPPLIES: [f64; 3] = [1.62, 1.8, 1.98];

impl SizingProblem for CorneredLadder {
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; 2], vec![1.0; 2])
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn num_corners(&self) -> usize {
        LADDER_SUPPLIES.len()
    }
    fn corner_name(&self, k: usize) -> String {
        format!("vdd{:.2}", LADDER_SUPPLIES[k])
    }
    fn evaluate_analysis(&self, x: &[f64], k: usize, _a: usize) -> AnalysisSpec {
        SparseLadder::evaluate_at(x, LADDER_SUPPLIES[k]).into()
    }
    fn name(&self) -> &str {
        "cornered-ladder"
    }
}

/// Exact (bitwise) history comparison.
fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    assert_eq!(
        a.history.first_feasible(),
        b.history.first_feasible(),
        "{label}: first feasible"
    );
    for (i, (ea, eb)) in a
        .history
        .entries()
        .iter()
        .zip(b.history.entries())
        .enumerate()
    {
        assert_eq!(ea.x, eb.x, "{label}: design #{i}");
        assert_eq!(ea.fom.to_bits(), eb.fom.to_bits(), "{label}: fom #{i}");
        assert_eq!(ea.feasible, eb.feasible, "{label}: feasibility #{i}");
        assert_eq!(
            ea.spec.objective.to_bits(),
            eb.spec.objective.to_bits(),
            "{label}: f0 #{i}"
        );
        assert_eq!(
            ea.spec.constraints, eb.spec.constraints,
            "{label}: constraints #{i}"
        );
        // Per-corner records (attached by the corner-grid engine) are
        // under the same bitwise contract as the merged spec.
        assert_eq!(
            ea.corner_specs.len(),
            eb.corner_specs.len(),
            "{label}: corner count #{i}"
        );
        for (k, (ca, cb)) in ea.corner_specs.iter().zip(&eb.corner_specs).enumerate() {
            assert_eq!(
                ca.objective.to_bits(),
                cb.objective.to_bits(),
                "{label}: corner {k} f0 #{i}"
            );
            assert_eq!(
                ca.constraints, cb.constraints,
                "{label}: corner {k} constraints #{i}"
            );
        }
    }
    assert_eq!(
        a.history.best_trace(),
        b.history.best_trace(),
        "{label}: best trace"
    );
}

/// One test covers all methods so the global thread-count override is
/// never raced by a concurrently running test.
#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    let problem = ToyAmp;
    let fom = Fom::uniform(1.0, 1);
    let quick = DnnOptConfig {
        critic_epochs: 60,
        actor_epochs: 20,
        critic_batch: 64,
        hidden: 16,
        ..Default::default()
    };
    let methods: Vec<(Box<dyn Optimizer>, usize)> = vec![
        (Box::new(DifferentialEvolution::default()), 150),
        (Box::new(RandomSearch), 150),
        (Box::new(DnnOpt::new(quick)), 40),
    ];
    for (method, budget) in &methods {
        for stop in [StopPolicy::Exhaust, StopPolicy::FirstFeasible] {
            parallel::set_max_threads(1);
            let serial = method.run(&problem, &fom, *budget, stop, 42);
            parallel::set_max_threads(8);
            let parallel_run = method.run(&problem, &fom, *budget, stop, 42);
            parallel::set_max_threads(0);
            assert_identical(
                &serial,
                &parallel_run,
                &format!("{} ({stop:?})", method.name()),
            );
        }
    }

    // The same guarantee through the full simulator stack with workspace
    // pooling on: candidates lease pooled `NewtonWorkspace`s (recorded
    // sparse patterns, reused factor storage), and which candidate gets
    // which workspace depends on the thread count — the results must not.
    let ladder = SparseLadder;
    let fom = Fom::uniform(1.0, 1);
    let sim_methods: Vec<(Box<dyn Optimizer>, usize)> = vec![
        (Box::new(RandomSearch), 48),
        (Box::new(DifferentialEvolution::default()), 60),
    ];
    for (method, budget) in &sim_methods {
        parallel::set_max_threads(1);
        let serial = method.run(&ladder, &fom, *budget, StopPolicy::Exhaust, 7);
        parallel::set_max_threads(8);
        let parallel_run = method.run(&ladder, &fom, *budget, StopPolicy::Exhaust, 7);
        parallel::set_max_threads(0);
        assert_identical(
            &serial,
            &parallel_run,
            &format!("{} (spice pool)", method.name()),
        );
    }
    // The corner-grid engine under the same contract: candidates of a
    // corner-indexed problem expand into the candidate×corner unit grid
    // (`Evaluator::evaluate_batch`), whose flattened work items
    // are what the worker threads chunk — so both the candidate→thread
    // *and* corner→thread assignments vary with thread count while the
    // recorded histories (merged specs, FoMs, and the attached per-corner
    // metric vectors) must stay bit-identical, with workspace pooling on.
    let cornered = CorneredLadder;
    let fom = Fom::uniform(1.0, 1);
    let corner_methods: Vec<(Box<dyn Optimizer>, usize)> = vec![
        (Box::new(RandomSearch), 24),
        (Box::new(DifferentialEvolution::default()), 36),
        (
            Box::new(DnnOpt::new(DnnOptConfig {
                critic_epochs: 60,
                actor_epochs: 20,
                critic_batch: 64,
                hidden: 16,
                ..Default::default()
            })),
            26,
        ),
    ];
    for (method, budget) in &corner_methods {
        parallel::set_max_threads(1);
        let serial = method.run(&cornered, &fom, *budget, StopPolicy::Exhaust, 7);
        parallel::set_max_threads(8);
        let parallel_run = method.run(&cornered, &fom, *budget, StopPolicy::Exhaust, 7);
        parallel::set_max_threads(0);
        // Every entry really ran the corner grid.
        assert!(serial
            .history
            .entries()
            .iter()
            .all(|e| e.corner_specs.len() == 3));
        assert_identical(
            &serial,
            &parallel_run,
            &format!("{} (corner grid)", method.name()),
        );
    }

    // A small paper testbench: the StrongARM latch's 15-unknown DC and
    // transient systems run the sparse kernels, and a DE run must be
    // bit-identical serially on a cold pool, at 8 threads, and serially
    // again on the pooled workspaces both runs left behind.
    let latch = circuits::StrongArmLatch::new();
    let fom = Fom::uniform(1.0, latch.num_constraints());
    let de = DifferentialEvolution::default();
    let latch_run = |threads: usize| {
        parallel::set_max_threads(threads);
        let run = de.run(&latch, &fom, 40, StopPolicy::Exhaust, 3);
        parallel::set_max_threads(0);
        run
    };
    let serial = latch_run(1);
    assert_identical(&serial, &latch_run(8), "latch DE (8 threads)");
    assert_identical(&serial, &latch_run(1), "latch DE (pooled reuse)");

    // Post-layout mesh topology through the sparse replay, outside any
    // grid dispatch: the thread budget must never reach the replay — so
    // factor + refactor + solve must stay bit-identical at any thread
    // count.
    let mesh_solution = |threads: usize| {
        use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};
        parallel::set_max_threads(threads);
        let ckt = circuits::mesh::build_rc_grid(500);
        let mut st = RealStamper::new(&ckt);
        let x0 = vec![0.0; 500];
        st.clear();
        st.load_gmin(1e-12);
        stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);
        let a = linalg::CscMatrix::from_dense(&linalg::Matrix::from_vec(500, 500, st.a.clone()));
        let mut slu = linalg::SparseLu::new();
        slu.factor(&a).unwrap();
        slu.refactor_into(&a).unwrap();
        let mut x = Vec::new();
        slu.solve_into(&st.z, &mut x).unwrap();
        parallel::set_max_threads(0);
        x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let mesh_reference = mesh_solution(1);
    for threads in [2usize, 8] {
        assert_eq!(
            mesh_solution(threads),
            mesh_reference,
            "mesh factorization must be bit-identical serial vs {threads}-thread"
        );
    }
}
