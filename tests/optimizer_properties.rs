//! Property-based tests on optimizer-facing invariants.

use opt::{Fom, SpecResult};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 4: the FoM of a feasible design is exactly w0·f0.
    #[test]
    fn fom_of_feasible_is_objective_only(
        obj in -10.0..10.0f64,
        slack in proptest::collection::vec(0.0..5.0f64, 1..8),
    ) {
        let cons: Vec<f64> = slack.iter().map(|s| -s).collect();
        let fom = Fom::uniform(0.7, cons.len());
        let spec = SpecResult { failure: None, objective: obj, constraints: cons };
        prop_assert!((fom.value(&spec) - 0.7 * obj).abs() < 1e-12);
    }

    /// Eq. 4: each violated constraint adds at most 1 regardless of depth.
    #[test]
    fn fom_violation_bounded(
        viol in proptest::collection::vec(0.0..1e9f64, 1..8),
    ) {
        let fom = Fom::uniform(0.0, viol.len());
        let spec = SpecResult { failure: None, objective: 0.0, constraints: viol.clone() };
        let g = fom.value(&spec);
        prop_assert!(g <= viol.len() as f64 + 1e-9);
        prop_assert!(g >= 0.0);
    }

    /// FoM is monotone in every constraint value.
    #[test]
    fn fom_monotone_in_constraints(
        base in proptest::collection::vec(-2.0..2.0f64, 3),
        bump in 0.0..3.0f64,
    ) {
        let fom = Fom::uniform(0.0, 3);
        let s0 = SpecResult { failure: None, objective: 0.0, constraints: base.clone() };
        let mut worse = base.clone();
        worse[1] += bump;
        let s1 = SpecResult { failure: None, objective: 0.0, constraints: worse };
        prop_assert!(fom.value(&s1) >= fom.value(&s0) - 1e-12);
    }

    /// Unit-cube mapping round-trips inside arbitrary boxes.
    #[test]
    fn unit_roundtrip(
        lb in proptest::collection::vec(-100.0..100.0f64, 1..6),
        width in proptest::collection::vec(0.001..100.0f64, 1..6),
        t in proptest::collection::vec(0.0..1.0f64, 1..6),
    ) {
        let n = lb.len().min(width.len()).min(t.len());
        let lb = &lb[..n];
        let ub: Vec<f64> = lb.iter().zip(&width[..n]).map(|(l, w)| l + w).collect();
        let x: Vec<f64> = t[..n]
            .iter()
            .zip(lb.iter().zip(&ub))
            .map(|(&tt, (&l, &u))| l + tt * (u - l))
            .collect();
        let u = opt::to_unit(&x, lb, &ub);
        let back = opt::from_unit(&u, lb, &ub);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Robust clipping never reorders the bulk: values inside [p10, p90]
    /// pass through unchanged.
    #[test]
    fn robust_clip_preserves_bulk(
        mut vals in proptest::collection::vec(-50.0..50.0f64, 10..60),
    ) {
        let (lo, hi) = opt::robust_clip_bounds(&vals);
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = vals[(vals.len() - 1) / 10];
        let p90 = vals[(vals.len() - 1) * 9 / 10];
        prop_assert!(lo <= p10 + 1e-9);
        prop_assert!(hi >= p90 - 1e-9);
    }
}

/// Pseudo-sample invariants on random populations.
mod pseudo_props {
    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn pseudo_sample_destination_consistency(
            n in 2usize..8,
            d in 1usize..5,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<Vec<f64>> =
                (0..n).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect();
            let fs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let (inp, out) = dnn_opt::pseudo::all_pseudo_samples(&xs, &fs);
            prop_assert_eq!(inp.rows(), n * n);
            for r in 0..n * n {
                let row = inp.row(r);
                let dest: Vec<f64> =
                    (0..d).map(|k| row[k] + row[d + k]).collect();
                let j = out[(r, 0)] as usize;
                for k in 0..d {
                    prop_assert!((dest[k] - xs[j][k]).abs() < 1e-12);
                }
            }
        }
    }
}

/// FNV-1a over the bit patterns of a slice of values.
fn fnv1a(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trained model bits, pinned: a critic fitted on a synthetic
/// population and an actor trained through it, each digested over its
/// predictions. n = 30 gives 900 pairs, so the critic draws a random
/// 128-row batch per step; n = 8 gives 64 pairs, so it trains on the
/// whole N² set. Any change to the pseudo-sample batches, the target
/// scaling, the GEMM rounding or the Adam step moves a digest. Holds on
/// every x86-64 host with FMA.
#[test]
fn critic_and_actor_bits_are_pinned() {
    use dnn_opt::{Actor, Critic, DnnOptConfig};
    use linalg::Matrix;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let cfg = DnnOptConfig {
        critic_epochs: 60,
        actor_epochs: 30,
        ..Default::default()
    };
    let digests: Vec<(u64, u64)> = [30usize, 8]
        .into_iter()
        .map(|n| {
            let mut rng = StdRng::seed_from_u64(0xc0ffee + n as u64);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| rng.gen::<f64>()).collect())
                .collect();
            let fs: Vec<Vec<f64>> = xs
                .iter()
                .map(|x| {
                    let f0: f64 = x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum();
                    vec![f0, 0.3 - x[0] * x[1], 1e3 * (x[2] - x[3])]
                })
                .collect();
            let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
            let probe = Matrix::from_fn(16, 8, |i, j| ((i * 8 + j) as f64 * 0.37).sin() * 0.5);
            let elite = &xs[..6];
            let fom = Fom::uniform(1.0, 2);
            let actor = Actor::train(&cfg, &critic, &fom, elite, &[0.1; 4], &[0.9; 4], &mut rng);
            let x = Matrix::from_fn(elite.len(), 4, |i, j| elite[i][j]);
            (
                fnv1a(critic.predict(&probe).as_slice()),
                fnv1a(actor.propose(&x).as_slice()),
            )
        })
        .collect();
    assert_eq!(
        digests,
        [
            (0xc5be_9f13_00fd_5449, 0x9639_4b72_0380_dbe8),
            (0x7d91_8d73_6038_29e1, 0xe72e_f1bb_8ef5_48f3),
        ],
        "model bits moved: {digests:#018x?}"
    );
}
