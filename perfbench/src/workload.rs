//! The benchmark's workloads: one optimizer, one testbench, one budget.
//!
//! Each stresses a different layer and bypasses another (see the README):
//! DNN-Opt on the nominal OTA is model-bound, DE on the five-corner OTA is
//! grid- and solver-bound, DE on the latch runs the candidate-level batch
//! body on dense transient LU, and DE on the post-layout OTA runs sparse LU
//! at several hundred unknowns.

use circuits::tech::CornerSet;
use circuits::{FoldedCascodeOta, StrongArmLatch};
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{DifferentialEvolution, Fom, Optimizer, SizingProblem};

#[derive(Debug, Clone, Copy)]
pub enum Method {
    DnnOpt,
    De,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    method: Method,
    /// Simulations per optimizer run (history entries).
    pub budget: usize,
    build: fn() -> Box<dyn SizingProblem>,
    /// Eq. 4 objective weight; every constraint weighs 0.25, as in the
    /// paper-testbench examples.
    fom_w0: f64,
}

/// Optimizer seed of every timed run. Fixed, because the work a run does
/// and its quality metrics vary from seed to seed by more than any usable
/// regression bound (see the README).
pub const TIMED_SEED: u64 = 1;

/// DE population of every DE workload: the smallest the optimizer's own
/// default ever picks, so a short budget still spans several generations.
const DE_POPULATION: usize = 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dnnopt_ota",
        method: Method::DnnOpt,
        budget: 30,
        build: || Box::new(FoldedCascodeOta::new()),
        fom_w0: 100.0,
    },
    Workload {
        name: "de_ota_pvt5",
        method: Method::De,
        budget: 40,
        build: || Box::new(FoldedCascodeOta::with_corners(CornerSet::pvt5())),
        fom_w0: 100.0,
    },
    Workload {
        name: "de_latch",
        method: Method::De,
        budget: 400,
        build: || Box::new(StrongArmLatch::new()),
        fom_w0: 3e4,
    },
    Workload {
        name: "de_ota_postlayout",
        method: Method::De,
        budget: 60,
        build: || Box::new(FoldedCascodeOta::post_layout()),
        fom_w0: 100.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Builds the testbench: templates, corner planes, parasitic ladders.
    pub fn build(&self) -> Box<dyn SizingProblem> {
        (self.build)()
    }

    pub fn fom(&self, problem: &dyn SizingProblem) -> Fom {
        Fom::new(self.fom_w0, vec![0.25; problem.num_constraints()])
    }

    pub fn optimizer(&self) -> Box<dyn Optimizer> {
        match self.method {
            Method::DnnOpt => Box::new(DnnOpt::new(DnnOptConfig::default())),
            Method::De => Box::new(DifferentialEvolution {
                population: DE_POPULATION,
                ..DifferentialEvolution::default()
            }),
        }
    }

    /// Candidates in the optimizer's first evaluation batch and in each
    /// later one: the benchmark splits the recorded calls into generations
    /// with these.
    pub fn batches(&self) -> (usize, usize) {
        match self.method {
            Method::DnnOpt => (DnnOptConfig::default().n_init.min(self.budget), 1),
            Method::De => (DE_POPULATION.min(self.budget), DE_POPULATION),
        }
    }
}
