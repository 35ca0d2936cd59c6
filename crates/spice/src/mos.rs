//! Level-1+ MOSFET model with smooth subthreshold interpolation.
//!
//! The model is a square-law (SPICE Level-1) device augmented with:
//!
//! - an EKV-style softplus interpolation of the overdrive, giving an
//!   exponential subthreshold region with slope factor `n` and a smooth
//!   (C^∞) transition into strong inversion — crucial for Newton-Raphson
//!   robustness;
//! - channel-length modulation `λ = clm / L` applied in both triode and
//!   saturation, which makes the drain current C¹ across the
//!   triode/saturation boundary;
//! - body effect `Vth = Vth0 + γ(√(φ+Vsb) − √φ)`;
//! - symmetric conduction (automatic drain/source swap for negative Vds);
//! - geometry-derived constant terminal capacitances (Meyer-style, evaluated
//!   once — a documented simplification that keeps the dynamic MNA matrix
//!   linear);
//! - thermal (`4kTγ_n·gm`) and flicker (`KF·Id^AF/(Cox·L²·f)`) noise.
//!
//! PMOS devices are evaluated in an internal "primed" frame with all
//! voltages negated, which keeps every formula in NMOS form.
//!
//! # Evaluation phases
//!
//! The large-signal arithmetic exists once, split into four phases
//! (`MosPhases`) that every evaluation runs in order:
//!
//! 1. **bias** — map the terminal voltages into the NMOS frame (polarity,
//!    then the drain/source swap for vds < 0), apply the body effect
//!    (`sqrt`, one divide) and form the softplus argument `x` (one divide);
//! 2. **exp** — `e = exp(x)`;
//! 3. **softplus** — `ln(1 + e)` and the sigmoid `e/(1 + e)`, with the
//!    `|x| > 40` branches;
//! 4. **finish** — the square law, its partials, and the map back to the
//!    device's terminals.
//!
//! [`eval_mos`] (the report API) and the generic stamp walk run the four
//! phases on one device. The compiled Newton replay runs each phase over
//! a chunk of devices before starting the next, so the independent
//! devices' `sqrt`/`exp`/`ln` calls and divides overlap in the core
//! instead of waiting on one device's serial chain. Each device still
//! performs the same IEEE operations in the same order — the phases only
//! move *when* they run, never what they compute, and `exp`/`ln` are the
//! same libm calls — so both paths give the same bits.

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Operating region, reported for constraint checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// Effectively off (overdrive below ~1 mV).
    Cutoff,
    /// Linear / ohmic region.
    Triode,
    /// Saturation.
    Saturation,
}

/// Model card: technology parameters shared by devices of one flavor.
///
/// All quantities are SI. `vth0` is the threshold magnitude (positive for
/// both polarities; the sign convention is handled internally).
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage magnitude \[V\].
    pub vth0: f64,
    /// Transconductance parameter µ·Cox \[A/V²\].
    pub kp: f64,
    /// Channel-length-modulation coefficient \[V⁻¹·m\]; `λ = clm / L`.
    pub clm: f64,
    /// Body-effect coefficient γ \[√V\].
    pub gamma: f64,
    /// Surface potential 2φF \[V\].
    pub phi: f64,
    /// Subthreshold slope factor n (≈1.2–1.6).
    pub nsub: f64,
    /// Gate-oxide capacitance per area \[F/m²\].
    pub cox: f64,
    /// Gate overlap capacitance per width \[F/m\].
    pub cov: f64,
    /// Junction capacitance per area \[F/m²\].
    pub cj: f64,
    /// Source/drain diffusion length \[m\] (sets junction area `W·ldiff`).
    pub ldiff: f64,
    /// Flicker-noise coefficient KF.
    pub kf: f64,
    /// Flicker-noise current exponent AF.
    pub af: f64,
    /// Thermal-noise gamma factor (2/3 for long channel).
    pub noise_gamma: f64,
}

impl MosModel {
    /// Channel-length modulation λ for a given drawn length.
    pub fn lambda(&self, l: f64) -> f64 {
        self.clm / l
    }

    /// The model card re-evaluated at an ambient temperature `temp` \[K\] —
    /// the standard SPICE temperature update, applied once per corner at
    /// setup time rather than per device evaluation:
    ///
    /// - threshold magnitude drops linearly, `Vth(T) = Vth0 − TC·(T − T_NOM)`
    ///   with [`VTH_TEMP_COEFF`] ≈ 0.8 mV/K;
    /// - mobility (and with it `KP`) degrades as `(T_NOM/T)^1.5`
    ///   ([`MOBILITY_TEMP_EXP`]).
    ///
    /// Together these reproduce the first-order silicon behaviour: hot
    /// devices are weaker at full gate drive (mobility dominates) but leak
    /// more near threshold (temperature inversion). At `temp == T_NOM` the
    /// returned card is bit-identical to `self`, so a nominal corner is
    /// exactly the legacy model.
    ///
    /// The thermal-noise temperature is *not* baked in here: the noise
    /// analyses read it from `SimOptions::temp` at evaluation time (see
    /// [`mos_noise_psd`]), so the same corner temperature must be written
    /// there too.
    ///
    /// # Panics
    ///
    /// Panics if `temp` is not a positive, finite Kelvin temperature.
    pub fn at_temperature(&self, temp: f64) -> MosModel {
        assert!(
            temp.is_finite() && temp > 0.0,
            "temperature must be positive Kelvin, got {temp}"
        );
        if temp == T_NOM {
            return self.clone();
        }
        let mut card = self.clone();
        card.vth0 = self.vth0 - VTH_TEMP_COEFF * (temp - T_NOM);
        card.kp = self.kp * (T_NOM / temp).powf(MOBILITY_TEMP_EXP);
        card
    }
}

/// Nominal model-card temperature \[K\] — the temperature at which every
/// [`MosModel`] card's parameters are specified.
pub const T_NOM: f64 = 300.0;
/// Threshold-voltage temperature coefficient \[V/K\]: `|Vth|` shrinks by
/// ~0.8 mV per Kelvin of heating (typical bulk-CMOS magnitude).
pub const VTH_TEMP_COEFF: f64 = 0.8e-3;
/// Mobility power-law temperature exponent: `µ(T) ∝ T^−1.5`.
pub const MOBILITY_TEMP_EXP: f64 = 1.5;

/// Thermal voltage kT/q at 300 K.
pub const VT_300K: f64 = 0.025852;
/// Boltzmann constant \[J/K\].
pub const BOLTZMANN: f64 = 1.380649e-23;

/// Instantaneous large-signal evaluation of a MOSFET at a bias point.
///
/// `id` is the current flowing *into the drain terminal*; `gm`, `gds`, `gmb`
/// are its partial derivatives with respect to `vgs`, `vds`, `vbs` at the
/// bias point (valid for both polarities and for reversed conduction).
#[derive(Debug, Clone, Copy)]
pub struct MosEval {
    /// Drain terminal current \[A\] (into the drain).
    pub id: f64,
    /// ∂id/∂vgs \[S\].
    pub gm: f64,
    /// ∂id/∂vds \[S\].
    pub gds: f64,
    /// ∂id/∂vbs \[S\].
    pub gmb: f64,
    /// Effective threshold magnitude in the internal frame \[V\].
    pub vth: f64,
    /// Saturation voltage (effective overdrive) \[V\], always ≥ 0.
    pub vdsat: f64,
    /// Saturation margin `|vds| − vdsat` \[V\]; positive in saturation.
    pub vsat_margin: f64,
    /// Operating region.
    pub region: MosRegion,
    /// True if the conduction direction is reversed (physical source and
    /// drain exchanged because vds had the "wrong" sign).
    pub reversed: bool,
}

/// Per-device constants of the large-signal model, computed once per
/// geometry (at [`crate::Circuit::add_mosfet`] /
/// [`crate::Circuit::set_mosfet_geometry`]) so the Newton stamping path
/// does not redo two divisions and a square root per evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosConsts {
    /// Gain factor `KP·(W·M)/L` \[A/V²\].
    pub beta: f64,
    /// Channel-length modulation `clm / L` \[V⁻¹\].
    pub lambda: f64,
    /// `√φ` of the body-effect term \[√V\].
    pub sqrt_phi: f64,
}

/// Computes the per-device model constants (the same expressions, in the
/// same order, as [`eval_mos`] evaluates them).
pub fn mos_consts(model: &MosModel, w: f64, l: f64, m: f64) -> MosConsts {
    MosConsts {
        beta: model.kp * (w * m) / l,
        lambda: model.lambda(l),
        sqrt_phi: model.phi.sqrt(),
    }
}

/// One MOSFET evaluation, split into the four phases every evaluation runs
/// in order (see the module docs): [`MosPhases::bias`], [`MosPhases::exp`],
/// [`MosPhases::softplus`], [`MosPhases::finish`]. The fields carry one
/// phase's results to the next, so a caller may run each phase over many
/// devices before starting the next one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MosPhases {
    /// Polarity sign: `1` for NMOS, `−1` for PMOS.
    sign: f64,
    /// `vds` in the primed frame, before the drain/source swap.
    vds_p: f64,
    /// Conduction reversed: the normal-mode model runs at (vgd, vsd, vbd).
    reversed: bool,
    /// `vds` of the normal-mode (vds ≥ 0) evaluation.
    vds: f64,
    /// Threshold with body effect \[V\].
    vth: f64,
    /// ∂vth/∂vbs.
    dvth_dvbs: f64,
    /// Softplus scale `2·n·Vt` \[V\].
    scale: f64,
    /// Gain factor `KP·(W·M)/L` \[A/V²\].
    beta: f64,
    /// Channel-length modulation \[V⁻¹\].
    lambda: f64,
    /// Softplus argument `(vgs − vth)/scale`.
    x: f64,
    /// `exp(x)`.
    e: f64,
    /// Softplus of `x`.
    sp: f64,
    /// Its derivative, the logistic sigmoid of `x`.
    sig: f64,
}

impl MosPhases {
    /// Phase 1: maps the physical terminal voltages into the internal
    /// NMOS frame (polarity, then the drain/source swap for vds < 0),
    /// applies the body effect and forms the softplus argument.
    #[inline(always)]
    pub(crate) fn bias(model: &MosModel, k: &MosConsts, vgs: f64, vds: f64, vbs: f64) -> Self {
        // Map PMOS into the NMOS ("primed") frame.
        let (sign, vgs_p, vds_p, vbs_p) = match model.polarity {
            MosPolarity::Nmos => (1.0, vgs, vds, vbs),
            MosPolarity::Pmos => (-1.0, -vgs, -vds, -vbs),
        };
        let (reversed, vgs, vds, vbs) = if vds_p >= 0.0 {
            (false, vgs_p, vds_p, vbs_p)
        } else {
            // Swap drain and source: evaluate at (vgd, vsd, vbd).
            (true, vgs_p - vds_p, -vds_p, vbs_p - vds_p)
        };
        // Body effect; vsb = -vbs, clamped to keep the sqrt real.
        let arg = (model.phi - vbs).max(1e-3);
        let sq = arg.sqrt();
        let vth = model.vth0 + model.gamma * (sq - k.sqrt_phi);
        let dvth_dvbs = -model.gamma / (2.0 * sq);
        // Smooth overdrive via softplus on scale 2·n·Vt.
        let scale = 2.0 * model.nsub * VT_300K;
        MosPhases {
            sign,
            vds_p,
            reversed,
            vds,
            vth,
            dvth_dvbs,
            scale,
            beta: k.beta,
            lambda: k.lambda,
            x: (vgs - vth) / scale,
            e: 0.0,
            sp: 0.0,
            sig: 0.0,
        }
    }

    /// Phase 2: `exp(x)`. Computed on every branch; the `x > 40` branch of
    /// [`MosPhases::softplus`] never reads it.
    #[inline(always)]
    pub(crate) fn exp(&mut self) {
        self.e = self.x.exp();
    }

    /// Phase 3: numerically stable softplus `ln(1 + e^x)` and its
    /// derivative, the logistic sigmoid.
    #[inline(always)]
    pub(crate) fn softplus(&mut self) {
        let (x, e) = (self.x, self.e);
        (self.sp, self.sig) = if x > 40.0 {
            (x, 1.0)
        } else if x < -40.0 {
            (e, e)
        } else {
            ((1.0 + e).ln(), e / (1.0 + e))
        };
    }

    /// Phase 4: the square law and its partials in the normal-mode frame,
    /// mapped back to the device's terminals.
    #[inline(always)]
    pub(crate) fn finish(&self) -> MosEval {
        let (beta, lambda, vds) = (self.beta, self.lambda, self.vds);
        let vov = (self.scale * self.sp).max(1e-12);
        let dvov_dvgs = self.sig;
        let dvov_dvbs = -self.sig * self.dvth_dvbs;

        let vdsat = vov;
        let (id, did_dvov, did_dvds, region) = if vds >= vdsat {
            let clm_f = 1.0 + lambda * vds;
            let id = 0.5 * beta * vov * vov * clm_f;
            (
                id,
                beta * vov * clm_f,
                0.5 * beta * vov * vov * lambda,
                MosRegion::Saturation,
            )
        } else {
            let clm_f = 1.0 + lambda * vds;
            let id = beta * (vov - 0.5 * vds) * vds * clm_f;
            (
                id,
                beta * vds * clm_f,
                beta * ((vov - vds) * clm_f + (vov - 0.5 * vds) * vds * lambda),
                MosRegion::Triode,
            )
        };
        let region = if vov < 1.5e-3 {
            MosRegion::Cutoff
        } else {
            region
        };

        let f1 = did_dvov * dvov_dvgs;
        let f2 = did_dvds;
        let f3 = did_dvov * dvov_dvbs;
        let (id_p, gm, gds, gmb) = if self.reversed {
            // Swapped frame: the partials recombine onto (vgs, vds, vbs).
            (-id, -f1, f1 + f2 + f3, -f3)
        } else {
            (id, f1, f2, f3)
        };

        // Polarity mapping: id flips with sign, derivatives are invariant
        // (two sign flips cancel).
        let id = self.sign * id_p;
        // A tiny conductance floor keeps the MNA matrix well conditioned when
        // the device is off.
        let gds = gds + 1e-12;

        MosEval {
            id,
            gm,
            gds,
            gmb,
            vth: self.vth,
            vdsat,
            vsat_margin: self.vds_p.abs() - vdsat,
            region,
            reversed: self.reversed,
        }
    }
}

/// Evaluates the model at terminal voltages (relative to the source):
/// `vgs`, `vds`, `vbs` are the *physical* terminal voltage differences.
pub fn eval_mos(model: &MosModel, w: f64, l: f64, m: f64, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    eval_mos_stamp(model, &mos_consts(model, w, l, m), vgs, vds, vbs)
}

/// The Newton stamping path: [`eval_mos`] on precomputed [`MosConsts`] —
/// the four [`MosPhases`] run on one device.
#[inline(always)]
pub(crate) fn eval_mos_stamp(
    model: &MosModel,
    k: &MosConsts,
    vgs: f64,
    vds: f64,
    vbs: f64,
) -> MosEval {
    let mut p = MosPhases::bias(model, k, vgs, vds, vbs);
    p.exp();
    p.softplus();
    p.finish()
}

/// Geometry-derived constant capacitances of a device \[F\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosCaps {
    /// Gate-source capacitance.
    pub cgs: f64,
    /// Gate-drain capacitance.
    pub cgd: f64,
    /// Gate-bulk capacitance.
    pub cgb: f64,
    /// Drain-bulk junction capacitance.
    pub cdb: f64,
    /// Source-bulk junction capacitance.
    pub csb: f64,
}

/// Computes the constant (saturation-mode Meyer) capacitance set.
pub fn mos_caps(model: &MosModel, w: f64, l: f64, m: f64) -> MosCaps {
    let wm = w * m;
    let cox_total = model.cox * wm * l;
    MosCaps {
        cgs: model.cov * wm + (2.0 / 3.0) * cox_total,
        cgd: model.cov * wm,
        cgb: 0.1 * cox_total,
        cdb: model.cj * wm * model.ldiff,
        csb: model.cj * wm * model.ldiff,
    }
}

/// Channel noise-current power spectral density \[A²/Hz\] at frequency `f`,
/// given the operating point (`gm`, `id`) and temperature `temp` \[K\].
pub fn mos_noise_psd(model: &MosModel, l: f64, gm: f64, id: f64, f: f64, temp: f64) -> f64 {
    let thermal = 4.0 * BOLTZMANN * temp * model.noise_gamma * gm.abs();
    let flicker = if f > 0.0 {
        model.kf * id.abs().powf(model.af) / (model.cox * l * l * f)
    } else {
        0.0
    };
    thermal + flicker
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Which model branches an evaluation `e` of `model` at the physical
    /// bias `(vgs, vds, vbs)` took: `[cutoff, triode, saturation,
    /// reversed, x > 40, x < −40, clamp]`, where `x` is the softplus
    /// argument and the clamp is the `φ − vbs < 1e-3` body-effect floor.
    pub(crate) fn branches(
        model: &MosModel,
        e: &MosEval,
        vgs: f64,
        vds: f64,
        vbs: f64,
    ) -> [bool; 7] {
        let sign = match model.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        // The bias in the internal frame.
        let (g, d, b) = (sign * vgs, sign * vds, sign * vbs);
        let (g, b) = if d >= 0.0 { (g, b) } else { (g - d, b - d) };
        let x = (g - e.vth) / (2.0 * model.nsub * VT_300K);
        [
            e.region == MosRegion::Cutoff,
            e.region == MosRegion::Triode,
            e.region == MosRegion::Saturation,
            e.reversed,
            x > 40.0,
            x < -40.0,
            model.phi - b < 1e-3,
        ]
    }

    fn nmos() -> MosModel {
        MosModel {
            polarity: MosPolarity::Nmos,
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
        }
    }

    fn pmos() -> MosModel {
        MosModel {
            polarity: MosPolarity::Pmos,
            vth0: 0.45,
            kp: 80e-6,
            ..nmos()
        }
    }

    #[test]
    fn saturation_current_matches_square_law() {
        let m = nmos();
        let (w, l) = (10e-6, 1e-6);
        let e = eval_mos(&m, w, l, 1.0, 1.0, 1.5, 0.0);
        assert_eq!(e.region, MosRegion::Saturation);
        // vov ≈ vgs - vth0 = 0.55 (softplus is essentially exact 7.6σ above
        // threshold); id ≈ 0.5·kp·W/L·vov²·(1+λvds).
        let beta = m.kp * w / l;
        let lambda = m.clm / l;
        let expect = 0.5 * beta * 0.55_f64.powi(2) * (1.0 + lambda * 1.5);
        assert!(
            (e.id - expect).abs() / expect < 0.01,
            "id={} expect={}",
            e.id,
            expect
        );
        assert!(e.vsat_margin > 0.9);
    }

    #[test]
    fn triode_current_matches_formula() {
        let m = nmos();
        let e = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.5, 0.1, 0.0);
        assert_eq!(e.region, MosRegion::Triode);
        let beta = m.kp * 10.0;
        let lambda = m.clm / 1e-6;
        let vov = 1.05;
        let expect = beta * (vov - 0.05) * 0.1 * (1.0 + lambda * 0.1);
        assert!((e.id - expect).abs() / expect < 0.01);
    }

    #[test]
    fn cutoff_current_is_tiny() {
        let m = nmos();
        let e = eval_mos(&m, 10e-6, 1e-6, 1.0, 0.0, 1.0, 0.0);
        assert_eq!(e.region, MosRegion::Cutoff);
        assert!(e.id < 1e-9, "leakage too high: {}", e.id);
        assert!(e.id > 0.0);
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = nmos();
        // Two points 100 mV apart, both well below threshold.
        let e1 = eval_mos(&m, 10e-6, 1e-6, 1.0, 0.20, 1.0, 0.0);
        let e2 = eval_mos(&m, 10e-6, 1e-6, 1.0, 0.30, 1.0, 0.0);
        let decades = (e2.id / e1.id).log10();
        // Expected slope: 0.1 V / (n·Vt·ln10) ≈ 0.1/0.0833 ≈ 1.2 decades.
        let expected = 0.1 / (m.nsub * VT_300K * std::f64::consts::LN_10);
        assert!(
            (decades - expected).abs() < 0.08,
            "decades={decades} expected={expected}"
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let cases = [
            (nmos(), 1.0, 1.2, -0.2),  // saturation
            (nmos(), 1.5, 0.2, 0.0),   // triode
            (nmos(), 0.3, 0.8, -0.1),  // subthreshold
            (nmos(), 1.0, -0.6, -0.1), // reversed
            (pmos(), -1.0, -1.2, 0.2), // PMOS saturation
            (pmos(), -1.5, -0.2, 0.0), // PMOS triode
            (pmos(), -1.0, 0.4, 0.1),  // PMOS reversed
        ];
        let h = 1e-7;
        for (model, vgs, vds, vbs) in cases {
            let e = eval_mos(&model, 20e-6, 0.5e-6, 2.0, vgs, vds, vbs);
            let idp = |dg: f64, dd: f64, db: f64| {
                eval_mos(&model, 20e-6, 0.5e-6, 2.0, vgs + dg, vds + dd, vbs + db).id
            };
            let gm_fd = (idp(h, 0.0, 0.0) - idp(-h, 0.0, 0.0)) / (2.0 * h);
            let gds_fd = (idp(0.0, h, 0.0) - idp(0.0, -h, 0.0)) / (2.0 * h);
            let gmb_fd = (idp(0.0, 0.0, h) - idp(0.0, 0.0, -h)) / (2.0 * h);
            let tol = |g: f64| 1e-7 + 1e-4 * g.abs();
            assert!(
                (e.gm - gm_fd).abs() < tol(gm_fd),
                "gm mismatch at ({vgs},{vds},{vbs}): {} vs {}",
                e.gm,
                gm_fd
            );
            assert!(
                (e.gds - gds_fd).abs() < tol(gds_fd),
                "gds mismatch at ({vgs},{vds},{vbs}): {} vs {}",
                e.gds,
                gds_fd
            );
            assert!(
                (e.gmb - gmb_fd).abs() < tol(gmb_fd),
                "gmb mismatch at ({vgs},{vds},{vbs}): {} vs {}",
                e.gmb,
                gmb_fd
            );
        }
    }

    #[test]
    fn pmos_current_direction() {
        let m = pmos();
        // PMOS with source at VDD: vgs = -1, vds = -1 conducts; current flows
        // out of the drain terminal, i.e. id (into drain) is negative.
        let e = eval_mos(&m, 10e-6, 1e-6, 1.0, -1.0, -1.0, 0.0);
        assert!(e.id < -1e-6);
        assert!(e.gm > 0.0);
        assert!(e.gds > 0.0);
    }

    #[test]
    fn reversed_conduction_is_antisymmetric() {
        let m = nmos();
        // With vbs=0 and symmetric source/drain, swapping the channel should
        // negate the current: id(vgs, -vds) vs -id(vgd, vds) relationship.
        let fwd = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.2, 0.3, 0.0);
        let rev = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.2 - 0.3, -0.3, -0.3);
        assert!(rev.reversed);
        assert!((fwd.id + rev.id).abs() < 1e-9 * fwd.id.abs().max(1.0));
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        let e0 = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.0, 1.5, 0.0);
        let eb = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.0, 1.5, -0.5); // vsb = 0.5
        assert!(eb.vth > e0.vth);
        assert!(eb.id < e0.id);
        assert!(eb.gmb > 0.0);
    }

    #[test]
    fn continuity_across_vdsat() {
        let m = nmos();
        let vov = 0.55;
        let vdsat = vov; // softplus ≈ exact here
        let below = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.0, vdsat - 1e-6, 0.0);
        let above = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.0, vdsat + 1e-6, 0.0);
        assert!((below.id - above.id).abs() / above.id < 1e-4);
        assert!((below.gds - above.gds).abs() / above.gds < 1e-2);
    }

    #[test]
    fn multiplier_scales_current() {
        let m = nmos();
        let e1 = eval_mos(&m, 10e-6, 1e-6, 1.0, 1.0, 1.5, 0.0);
        let e4 = eval_mos(&m, 10e-6, 1e-6, 4.0, 1.0, 1.5, 0.0);
        assert!((e4.id / e1.id - 4.0).abs() < 1e-12);
    }

    #[test]
    fn caps_scale_with_geometry() {
        let m = nmos();
        let c1 = mos_caps(&m, 10e-6, 1e-6, 1.0);
        let c2 = mos_caps(&m, 20e-6, 1e-6, 1.0);
        assert!((c2.cgs / c1.cgs - 2.0).abs() < 1e-12);
        assert!(c1.cgs > c1.cgd); // intrinsic channel cap goes to the source
        assert!(c1.cdb > 0.0 && c1.csb > 0.0 && c1.cgb > 0.0);
    }

    #[test]
    fn noise_psd_components() {
        let m = nmos();
        let thermal_only = mos_noise_psd(&m, 1e-6, 1e-3, 1e-4, 1e12, 300.0);
        let with_flicker = mos_noise_psd(&m, 1e-6, 1e-3, 1e-4, 1.0, 300.0);
        assert!(with_flicker > thermal_only);
        let expect_thermal = 4.0 * BOLTZMANN * 300.0 * (2.0 / 3.0) * 1e-3;
        // At 1 THz the flicker term is negligible but nonzero.
        assert!((thermal_only - expect_thermal).abs() / expect_thermal < 1e-4);
    }

    #[test]
    fn temperature_update_is_identity_at_t_nom() {
        let m = nmos();
        let at_nom = m.at_temperature(T_NOM);
        assert_eq!(m.vth0.to_bits(), at_nom.vth0.to_bits());
        assert_eq!(m.kp.to_bits(), at_nom.kp.to_bits());
        assert_eq!(m, at_nom);
    }

    #[test]
    fn hot_devices_are_weaker_at_full_drive_but_leak_more() {
        let m = nmos();
        let hot = m.at_temperature(398.15);
        let cold = m.at_temperature(233.15);
        // Threshold drops when hot, rises when cold.
        assert!(hot.vth0 < m.vth0 && cold.vth0 > m.vth0);
        // Mobility degrades when hot.
        assert!(hot.kp < m.kp && cold.kp > m.kp);
        // Full-gate-drive current: mobility wins, the hot device is weaker.
        let id_hot = eval_mos(&hot, 10e-6, 1e-6, 1.0, 1.8, 1.8, 0.0).id;
        let id_cold = eval_mos(&cold, 10e-6, 1e-6, 1.0, 1.8, 1.8, 0.0).id;
        assert!(id_hot < id_cold, "{id_hot} vs {id_cold}");
        // Subthreshold leakage: the lower hot threshold wins (temperature
        // inversion).
        let leak_hot = eval_mos(&hot, 10e-6, 1e-6, 1.0, 0.2, 1.0, 0.0).id;
        let leak_cold = eval_mos(&cold, 10e-6, 1e-6, 1.0, 0.2, 1.0, 0.0).id;
        assert!(leak_hot > leak_cold, "{leak_hot} vs {leak_cold}");
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn non_physical_temperature_rejected() {
        let _ = nmos().at_temperature(-10.0);
    }

    /// Pins the model's bits: one FNV-1a digest of every [`eval_mos`]
    /// field over a bias grid that visits NMOS and PMOS, forward and
    /// reversed conduction, saturation, triode and cutoff, both `|x| > 40`
    /// softplus branches and the `φ − vbs < 1e-3` body-effect clamp. A
    /// restructuring of the model arithmetic that keeps the bits keeps the
    /// digest.
    #[test]
    fn eval_mos_bits_are_pinned() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut seen = [0usize; 7];
        for model in [nmos(), pmos()] {
            for i in 0..13 {
                for j in 0..11 {
                    for k in 0..9 {
                        let vgs = (i as f64 - 6.0) * 0.75;
                        let vds = (j as f64 - 5.0) * 0.6;
                        let vbs = (k as f64 - 4.0) * 0.3;
                        let e = eval_mos(&model, 20e-6, 0.5e-6, 2.0, vgs, vds, vbs);
                        for v in [e.id, e.gm, e.gds, e.gmb, e.vth, e.vdsat, e.vsat_margin] {
                            fold(v.to_bits());
                        }
                        fold(e.region as u64);
                        fold(u64::from(e.reversed));
                        for (n, hit) in seen.iter_mut().zip(branches(&model, &e, vgs, vds, vbs)) {
                            *n += usize::from(hit);
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "grid coverage {seen:?}");
        assert_eq!(hash, 0x83ea_80d0_58e0_dc8a, "eval_mos digest {hash:#018x}");
    }

    /// Phases 2 and 3 on a bare softplus argument.
    fn softplus(x: f64) -> (f64, f64) {
        let mut p = MosPhases {
            x,
            ..MosPhases::default()
        };
        p.exp();
        p.softplus();
        (p.sp, p.sig)
    }

    #[test]
    fn softplus_extremes_are_stable() {
        let (v, d) = softplus(100.0);
        assert_eq!(v, 100.0);
        assert_eq!(d, 1.0);
        let (v, d) = softplus(-100.0);
        assert!(v > 0.0 && v < 1e-40);
        assert!(d > 0.0 && d < 1e-40);
    }
}
