//! **DNN-Opt**: an RL-inspired two-stage deep-neural-network black-box
//! optimizer for analog circuit sizing.
//!
//! Reproduction of Budak et al., *"DNN-Opt: An RL Inspired Optimization for
//! Analog Circuit Sizing using Deep Neural Networks"*, DAC 2021. The
//! algorithm borrows the actor-critic structure of DDPG but repurposes it
//! for non-MDP black-box optimization:
//!
//! - a **critic** `Q(x, Δx) → [f0, f1, …, fm]` serves as a cheap SPICE
//!   proxy, trained each iteration on up to `N²` *pseudo-samples* built
//!   from all ordered pairs of simulated designs ([`pseudo`], Eq. 2) with
//!   the MSE loss of Eq. 3;
//! - an **actor** `µ(x) → Δx` proposes design improvements, trained through
//!   the frozen critic to minimize the clipped figure of merit
//!   ([`opt::Fom`], Eq. 4) plus a quadratic penalty that keeps proposals
//!   inside the elite population's bounding box (Eq. 5–6);
//! - an **elite population** restricts the search region, and exactly one
//!   new SPICE simulation per iteration is chosen by the critic's ranking
//!   of the actor's candidates (Eq. 8);
//! - **sensitivity analysis** ([`SensitivityReport`], Eq. 7) prunes the
//!   variable space of large industrial circuits before optimization.
//!
//! The optimizer implements [`opt::Optimizer`], so it plugs into the same
//! harness as the paper's baselines (DE, BO-wEI, GASPAD, simulated
//! annealing).
//!
//! ```
//! use dnn_opt::{DnnOpt, DnnOptConfig};
//! use opt::{AnalysisSpec, Fom, Optimizer, SizingProblem, SpecResult, StopPolicy};
//!
//! // A toy constrained problem standing in for a circuit.
//! struct Toy;
//! impl SizingProblem for Toy {
//!     fn dim(&self) -> usize { 3 }
//!     fn bounds(&self) -> (Vec<f64>, Vec<f64>) { (vec![0.0; 3], vec![1.0; 3]) }
//!     fn num_constraints(&self) -> usize { 1 }
//!     fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
//!         SpecResult { failure: None,
//!             objective: x.iter().map(|v| (v - 0.6) * (v - 0.6)).sum(),
//!             constraints: vec![0.3 - x[0]],
//!         }
//!         .into()
//!     }
//! }
//!
//! let optimizer = DnnOpt::new(DnnOptConfig { critic_epochs: 10, actor_epochs: 10, ..Default::default() });
//! let fom = Fom::uniform(1.0, 1);
//! let run = optimizer.run(&Toy, &fom, 40, StopPolicy::Exhaust, 0);
//! assert_eq!(run.history.len(), 40);
//! ```

mod actor;
mod config;
mod critic;
mod elite;
mod optimizer;
pub mod pseudo;
mod sensitivity;

pub use actor::Actor;
pub use config::DnnOptConfig;
pub use critic::Critic;
pub use elite::{elite_indices, restricted_bounds};
pub use optimizer::DnnOpt;
pub use sensitivity::{ReducedProblem, SensitivityReport};
