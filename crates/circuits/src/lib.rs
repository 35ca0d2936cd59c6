//! Parameterized analog circuits with full measurement extraction — the six
//! sizing problems of the DNN-Opt paper.
//!
//! Small building blocks (180nm-class, paper §III-A):
//! - [`FoldedCascodeOta`] — Fig. 2 / Table I / Eq. 9 (20 variables, 29
//!   constraints); [`FoldedCascodeOta::post_layout`] is its variant with
//!   an extracted RC mesh;
//! - [`StrongArmLatch`] — Fig. 5 / Table III / Eq. 10 (13 variables, 10
//!   constraints).
//!
//! Industrial circuits (paper Table V, one row each, with estimated
//! parasitics and arrayed devices):
//! - [`InverterChain`] — row 1 (8 variables, 2 constraints);
//! - [`LevelShifter`] — row 2 (16 variables, 10 constraints per supply
//!   corner, 60 specs over its six corners);
//! - [`Ldo`] — row 3 (10 variables, 9 constraints);
//! - [`Ctle`] — row 4 (12 variables, 14 constraints).
//!
//! All problems implement [`opt::SizingProblem`], so every optimizer in the
//! workspace (including DNN-Opt) runs on them unchanged.

pub mod measure;
pub mod mesh;
pub mod parasitics;
pub mod tech;

mod comparator;
mod ctle;
mod inverter_chain;
mod ldo;
mod level_shifter;
mod ota;

pub use comparator::{LatchParams, StrongArmLatch};
pub use ctle::Ctle;
pub use inverter_chain::InverterChain;
pub use ldo::Ldo;
pub use level_shifter::LevelShifter;
pub use ota::{FoldedCascodeOta, OtaParams, OtaReport};

/// Converts a simulator error into the optimizer's evaluation-level
/// failure diagnosis: solver failures map one-to-one onto the taxonomy
/// (kind, ladder stage, retry budget, injected flag); everything else
/// (netlist construction, unknown devices, bad analysis windows) is a
/// [`opt::FailureKind::Setup`] failure tagged with `analysis` — the
/// testbench phase that was running when the error surfaced.
pub fn diag_from_spice(e: &spice::SpiceError, analysis: &str) -> opt::FailureDiag {
    match e.failure_diag() {
        Some(d) => opt::FailureDiag {
            kind: match d.kind {
                spice::FailureKind::Singular => opt::FailureKind::Singular,
                spice::FailureKind::NoConvergence => opt::FailureKind::NoConvergence,
                spice::FailureKind::NanResidual => opt::FailureKind::NanResidual,
                spice::FailureKind::StepUnderflow => opt::FailureKind::StepUnderflow,
            },
            analysis: format!("{analysis}: {}", d.analysis),
            stage: match d.stage {
                spice::LadderStage::PlainNr => opt::RecoveryStage::PlainNr,
                spice::LadderStage::GminStepping => opt::RecoveryStage::GminStepping,
                spice::LadderStage::SourceStepping => opt::RecoveryStage::SourceStepping,
                spice::LadderStage::StepHalving => opt::RecoveryStage::StepHalving,
                spice::LadderStage::SmallSignal => opt::RecoveryStage::SmallSignal,
            },
            iterations: d.iterations,
            halvings: d.halvings,
            injected: d.injected,
        },
        None => opt::FailureDiag::setup(format!("{analysis}: {e}")),
    }
}

#[cfg(test)]
mod diag_tests {
    use super::*;

    #[test]
    fn solver_errors_map_one_to_one() {
        let e = spice::SpiceError::Solver(spice::FailureDiag {
            kind: spice::FailureKind::NanResidual,
            analysis: "dc operating point",
            stage: spice::LadderStage::SourceStepping,
            iterations: 77,
            halvings: 0,
            injected: true,
        });
        let d = diag_from_spice(&e, "ota dc");
        assert_eq!(d.kind, opt::FailureKind::NanResidual);
        assert_eq!(d.stage, opt::RecoveryStage::SourceStepping);
        assert_eq!(d.iterations, 77);
        assert!(d.injected);
        assert!(d.analysis.contains("ota dc"));
        assert!(d.analysis.contains("dc operating point"));
    }

    #[test]
    fn non_solver_errors_become_setup_failures() {
        let e = spice::SpiceError::BadValue {
            device: "M1".into(),
            reason: "negative width".into(),
        };
        let d = diag_from_spice(&e, "netlist build");
        assert_eq!(d.kind, opt::FailureKind::Setup);
        assert_eq!(d.stage, opt::RecoveryStage::None);
        assert!(d.analysis.contains("M1"));
    }

    #[test]
    fn ac_singularities_map_to_small_signal_stage() {
        let e = spice::SpiceError::SingularMatrix { analysis: "ac" };
        let d = diag_from_spice(&e, "open-loop ac");
        assert_eq!(d.kind, opt::FailureKind::Singular);
        assert_eq!(d.stage, opt::RecoveryStage::SmallSignal);
    }
}

#[cfg(test)]
mod nominal_bits_tests {
    use opt::SizingProblem;

    /// Bits of the nominal design's objective followed by its constraints.
    fn nominal_bits<P: SizingProblem>(p: &P) -> Vec<u64> {
        let spec = p.evaluate(&p.nominal());
        assert!(spec.failure.is_none(), "nominal design must simulate");
        std::iter::once(spec.objective)
            .chain(spec.constraints)
            .map(f64::to_bits)
            .collect()
    }

    /// The small testbenches' nominal evaluations, pinned to the bit. The
    /// golden perfbench digests cover only the OTA and the latch; these
    /// values catch a simulator change that moves the CTLE (DC + AC), the
    /// LDO (DC + AC), the level shifter (six transient corners) or the
    /// inverter chain (transient) by even one rounding.
    #[test]
    fn small_testbench_nominal_bits_are_pinned() {
        const CTLE: [u64; 15] = [
            0x3f53f33ba55f3848,
            0xbfea477a9efd49f3,
            0xbfe5b8856102b60d,
            0xbfe250c13ad53150,
            0xbff6d79f62956758,
            0xbffb2864ae578cfc,
            0xbfe8d79b51a87304,
            0xbfe7dc1201c2880f,
            0xbfeee0b2388aa4ae,
            0xbfe302fa80560207,
            0xbfddb7100cb63294,
            0xbfe5f144c671b382,
            0xbfeff779354ec2f8,
            0xc0026ed0dc183d3d,
            0xbfea2f86a029a4a8,
        ];
        const LDO: [u64; 10] = [
            0x3f0c485d775c5f40,
            0xbfeb4dc6a42c8158,
            0xbfec20fbc965fa90,
            0xbff57e810c700cba,
            0xbfeaca72ccfb7880,
            0xc00a24b6a065e3a6,
            0xc011c7d94d51d48f,
            0xbff7ea43aceeecc0,
            0xbfe75e6a79f2ef6f,
            0xbfc4d112bf2fe09d,
        ];
        const LEVEL_SHIFTER: [u64; 11] = [
            0x3fa843ab5dbeb86d,
            0xbfe8c112e2a704e1,
            0xbfe39491b93f11a9,
            0xbfee462a74103a0d,
            0xbfee3d8b7cf976a1,
            0xbfa99959bf81e400,
            0xbfa999256f6d1b26,
            0xbfee9df9472bc971,
            0xbfefeb7ebd5cb9ab,
            0xbfc0d5ac778bc34e,
            0xbfe5e3cdee45ddd2,
        ];
        const INVERTER_CHAIN: [u64; 3] =
            [0x3fa062904cf63483, 0xbfe6d2a0e5f05138, 0xbfe332ff43dfa6fa];
        assert_eq!(nominal_bits(&super::Ctle::new()), CTLE, "CTLE");
        assert_eq!(nominal_bits(&super::Ldo::new()), LDO, "LDO");
        assert_eq!(
            nominal_bits(&super::LevelShifter::new()),
            LEVEL_SHIFTER,
            "level shifter"
        );
        assert_eq!(
            nominal_bits(&super::InverterChain::new()),
            INVERTER_CHAIN,
            "inverter chain"
        );
    }
}
