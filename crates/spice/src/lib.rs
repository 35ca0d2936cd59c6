//! An MNA-based analog circuit simulator.
//!
//! This crate is the "commercial SPICE" substitute for the DNN-Opt
//! reproduction: the optimizers in the workspace treat it as the expensive
//! black-box evaluator that the paper calls "the circuit simulator". It
//! implements the analyses the paper's measurements require:
//!
//! - [`op`] / [`dc_sweep`] — nonlinear DC solution by damped Newton-Raphson
//!   with gmin stepping and source stepping fallbacks;
//! - [`ac`] — complex small-signal frequency sweeps on the pattern-shared
//!   sparse complex solver;
//! - [`transient`] — trapezoidal time-domain integration with breakpoint
//!   handling and adaptive step halving;
//! - [`noise`] — adjoint-based output-noise analysis (thermal + flicker).
//!
//! Every MNA system — each Newton step of the DC and transient engines,
//! each AC/noise frequency point — is solved by one sparse LU over a
//! stamp→slot map recorded once per circuit topology (see
//! [`NewtonWorkspace`]).
//!
//! Devices: resistors, capacitors, independent V/I sources (DC, pulse, sine,
//! PWL waveforms), VCVS/VCCS, and a smoothed Level-1+ MOSFET model
//! ([`MosModel`]) with subthreshold conduction, channel-length modulation,
//! body effect, constant Meyer-style capacitances and channel noise.
//!
//! # Quick start
//!
//! ```
//! use spice::{Circuit, SimOptions, Waveform};
//!
//! // A 2:1 resistive divider.
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", vin, spice::GND, Waveform::Dc(2.0))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_resistor("R2", out, spice::GND, 1e3)?;
//!
//! let op = spice::op(&ckt, &SimOptions::default())?;
//! assert!((op.voltage(out) - 1.0).abs() < 1e-9);
//! # Ok::<(), spice::SpiceError>(())
//! ```

pub mod analysis;
pub mod diag;
mod error;
pub mod fault;
pub mod mos;
mod netlist;
mod options;
pub mod stamp;
mod waveform;
mod workspace;

pub use analysis::ac::{ac, ac_multi_with_workspace, ac_with_workspace, log_freqs, AcSweep};
pub use analysis::dc::{dc_sweep, op, op_with_guess, op_with_workspace, MosOp, OpPoint};
pub use analysis::noise::{noise, noise_with_workspace, NoiseResult};
pub use analysis::tran::{transient, transient_from_op, transient_with_workspace, TranResult};
pub use diag::{FailureDiag, FailureKind, LadderStage};
pub use error::SpiceError;
pub use mos::{MosModel, MosPolarity, MosRegion, T_NOM};
pub use netlist::{Circuit, Device, NodeId, GND};
pub use options::SimOptions;
pub use waveform::Waveform;
pub use workspace::{lease_workspace, NewtonWorkspace, PooledWorkspace};
