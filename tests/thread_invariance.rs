//! Thread-count invariance: the whole stack — population fan-out over the
//! shared worker pool and the hierarchical candidate×corner×analysis grid
//! — must produce bit-identical results at **any** thread count, not just
//! serial vs "8".
//!
//! `tests/parallel_determinism.rs` pins serial ≡ 8-thread for the
//! optimizer histories; this suite sweeps the awkward counts (1, 2, 7 —
//! even splits, odd splits, more workers than work) and additionally
//! guards the kernels below the grid: critic training and the mesh AC +
//! noise sweep run outside any grid dispatch, and the thread count must
//! never reach them — two critics trained at different thread counts must
//! agree to the last bit on every probe prediction, which can only happen
//! if their weights are bit-identical.

use circuits::tech::CornerSet;
use circuits::FoldedCascodeOta;
use dnn_opt::{Critic, DnnOpt, DnnOptConfig};
use linalg::Matrix;
use opt::{
    parallel, DifferentialEvolution, Fom, Optimizer, RunResult, SizingProblem, SpecResult,
    StopPolicy,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use spice::{Circuit, SimOptions, Waveform, GND};

/// The `tests/parallel_determinism.rs` sparse-ladder fixture: a 30-stage
/// diode-connected-NMOS ladder whose DC + AC + noise suite runs the real
/// sparse solver pipeline through pool-leased workspaces.
struct SparseLadder;

impl SparseLadder {
    fn evaluate_at(x: &[f64], vdd: f64) -> SpecResult {
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
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        ckt.add_vsource_ac("VDD", vdd_node, GND, Waveform::Dc(vdd), 1.0)
            .unwrap();
        let mut prev = vdd_node;
        for i in 0..30 {
            let d = ckt.node(&format!("d{i}"));
            ckt.add_resistor(&format!("R{i}"), prev, d, 2e3 + 6e3 * x[1])
                .unwrap();
            ckt.add_mosfet(
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
        let mut ws = spice::lease_workspace(&ckt);
        let Ok(op) = spice::op_with_workspace(&ckt, &SimOptions::default(), None, &mut ws) else {
            return SpecResult::failed(1);
        };
        let mid = ckt.find_node("d14").unwrap();
        let end = ckt.find_node("d29").unwrap();
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
    fn evaluate(&self, x: &[f64]) -> SpecResult {
        Self::evaluate_at(x, 1.8)
    }
    fn name(&self) -> &str {
        "sparse-ladder"
    }
}

/// The ladder with a three-corner supply plane: candidates expand into the
/// candidate×corner grid, whose round-robin worker assignment varies with
/// thread count while the recorded histories must not.
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
    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        SparseLadder::evaluate_at(x, LADDER_SUPPLIES[k])
    }
    fn evaluate(&self, x: &[f64]) -> SpecResult {
        opt::evaluate_worst_case(self, x)
    }
    fn name(&self) -> &str {
        "cornered-ladder"
    }
}

/// Exact (bitwise) history comparison, including per-corner records and
/// failure diagnoses (`SpecResult`'s `PartialEq` covers the diagnosis).
fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    for (i, (ea, eb)) in a
        .history
        .entries()
        .iter()
        .zip(b.history.entries())
        .enumerate()
    {
        assert_eq!(ea.x, eb.x, "{label}: design #{i}");
        assert_eq!(ea.fom.to_bits(), eb.fom.to_bits(), "{label}: fom #{i}");
        assert_eq!(ea.spec, eb.spec, "{label}: spec (incl. diagnosis) #{i}");
        assert_eq!(ea.corner_specs, eb.corner_specs, "{label}: corners #{i}");
    }
    assert_eq!(
        a.history.best_trace(),
        b.history.best_trace(),
        "{label}: best trace"
    );
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn quick_cfg() -> DnnOptConfig {
    DnnOptConfig {
        critic_epochs: 60,
        actor_epochs: 20,
        critic_batch: 64,
        hidden: 16,
        ..Default::default()
    }
}

/// One test covers everything so the global thread-count override is never
/// raced by a concurrently running test.
#[test]
fn runs_are_bit_identical_at_every_thread_count() {
    // --- Full optimizer runs over the real simulator stack.
    let ladder_fom = Fom::uniform(1.0, 1);
    let dnn: Box<dyn Optimizer> = Box::new(DnnOpt::new(quick_cfg()));
    let de: Box<dyn Optimizer> = Box::new(DifferentialEvolution::default());

    let runs_at = |threads: usize| -> Vec<(RunResult, &'static str)> {
        parallel::set_max_threads(threads);
        let mut runs = vec![
            (
                dnn.run(&SparseLadder, &ladder_fom, 36, StopPolicy::Exhaust, 5),
                "dnn-opt ladder",
            ),
            (
                de.run(&SparseLadder, &ladder_fom, 48, StopPolicy::Exhaust, 5),
                "de ladder",
            ),
            (
                dnn.run(&CorneredLadder, &ladder_fom, 24, StopPolicy::Exhaust, 7),
                "dnn-opt cornered ladder",
            ),
            (
                de.run(&CorneredLadder, &ladder_fom, 36, StopPolicy::Exhaust, 7),
                "de cornered ladder",
            ),
        ];
        // The OTA runs the two-analysis unit grid (candidate × corner ×
        // analysis) — the deepest level of the hierarchical scheduler.
        let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
        let ota_fom = Fom::new(100.0, vec![0.25; SizingProblem::num_constraints(&ota)]);
        runs.push((
            de.run(&ota, &ota_fom, 12, StopPolicy::Exhaust, 3),
            "de ota unit grid",
        ));
        parallel::set_max_threads(0);
        runs
    };

    let reference = runs_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let candidate = runs_at(threads);
        for ((a, label), (b, _)) in reference.iter().zip(&candidate) {
            assert_identical(a, b, &format!("{label} @ {threads} threads"));
        }
    }

    // --- The trained critic itself, outside any grid dispatch. Training
    // shapes (256×64 batches over a width-40 input) take the blocked
    // GEMM on hosts without AVX-512 and the small path on AVX-512 hosts;
    // both are serial, so the thread count must not reach them.
    // Bit-identical probe predictions at every thread count ⇒
    // bit-identical weights.
    let dim = 20;
    let n = 40;
    let mut rng = StdRng::seed_from_u64(13);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let fs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let f0: f64 = x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum();
            vec![f0, x[0] - 0.5]
        })
        .collect();
    let cfg = DnnOptConfig {
        critic_epochs: 40,
        critic_batch: 256,
        hidden: 64,
        ..Default::default()
    };
    let mut probe_rng = StdRng::seed_from_u64(99);
    let probes = Matrix::from_fn(32, 2 * dim, |_, _| probe_rng.gen::<f64>());

    let critic_bits_at = |threads: usize| -> Vec<u64> {
        parallel::set_max_threads(threads);
        let mut train_rng = StdRng::seed_from_u64(21);
        let critic = Critic::train(&cfg, &xs, &fs, &mut train_rng);
        parallel::set_max_threads(0);
        let pred = critic.predict(&probes);
        (0..pred.rows())
            .flat_map(|i| pred.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect()
    };

    let reference_bits = critic_bits_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            critic_bits_at(threads),
            reference_bits,
            "critic weights must be bit-identical at {threads} threads"
        );
    }

    // --- The sparse complex replay through the full AC + noise
    // pipeline, outside any grid dispatch. The post-layout RC mesh runs
    // the serial sparse complex kernel, so the solved sweep voltages and
    // the integrated output noise must stay bit-identical at a 1 / 2 / 8
    // worker budget.
    let mesh_ac_bits = |threads: usize| -> Vec<u64> {
        parallel::set_max_threads(threads);
        let ckt = circuits::mesh::build_rc_grid(500);
        let mut ws = spice::lease_workspace(&ckt);
        let op = spice::op_with_workspace(&ckt, &SimOptions::default(), None, &mut ws).unwrap();
        let freqs = [1e6, 1e8, 1e9];
        let sweep =
            spice::ac_with_workspace(&ckt, &SimOptions::default(), &op, &freqs, &mut ws).unwrap();
        assert!(
            ws.uses_sparse_ac(),
            "mesh AC must run the sparse complex kernel"
        );
        let mid = ckt.find_node("g250").unwrap();
        let out = ckt.find_node("g498").unwrap();
        let nres = spice::noise_with_workspace(
            &ckt,
            &SimOptions::default(),
            &op,
            out,
            GND,
            &freqs,
            &mut ws,
        )
        .unwrap();
        parallel::set_max_threads(0);
        let mut bits = Vec::new();
        for i in 0..freqs.len() {
            for &node in &[mid, out] {
                let v = sweep.voltage(i, node);
                bits.push(v.re.to_bits());
                bits.push(v.im.to_bits());
            }
        }
        bits.push(nres.total_rms().to_bits());
        bits
    };
    let mesh_reference = mesh_ac_bits(1);
    for threads in [2usize, 8] {
        assert_eq!(
            mesh_ac_bits(threads),
            mesh_reference,
            "mesh AC + noise must be bit-identical at {threads} threads"
        );
    }
}
