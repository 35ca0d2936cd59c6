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

/// The linearization the Newton stamps consume: drain current and its
/// partials (the first four fields of [`MosEval`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosStamp {
    /// Drain terminal current \[A\] (into the drain).
    pub id: f64,
    /// ∂id/∂vgs \[S\].
    pub gm: f64,
    /// ∂id/∂vds \[S\].
    pub gds: f64,
    /// ∂id/∂vbs \[S\].
    pub gmb: f64,
}

/// Numerically stable softplus and its derivative (the logistic sigmoid).
fn softplus(x: f64) -> (f64, f64) {
    if x > 40.0 {
        (x, 1.0)
    } else if x < -40.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        ((1.0 + e).ln(), e / (1.0 + e))
    }
}

/// Normal-mode (vds ≥ 0) drain current and partials in the internal NMOS
/// frame. Returns `(id, d/dvgs, d/dvds, d/dvbs, vth, vdsat, region)`.
#[allow(clippy::type_complexity)]
fn normal_mode(
    model: &MosModel,
    k: &MosConsts,
    vgs: f64,
    vds: f64,
    vbs: f64,
) -> (f64, f64, f64, f64, f64, f64, MosRegion) {
    let (beta, lambda) = (k.beta, k.lambda);
    // Body effect; vsb = -vbs, clamped to keep the sqrt real.
    let arg = (model.phi - vbs).max(1e-3);
    let sq = arg.sqrt();
    let vth = model.vth0 + model.gamma * (sq - k.sqrt_phi);
    let dvth_dvbs = -model.gamma / (2.0 * sq);

    // Smooth overdrive via softplus on scale 2·n·Vt.
    let scale = 2.0 * model.nsub * VT_300K;
    let x = (vgs - vth) / scale;
    let (sp, sig) = softplus(x);
    let vov = (scale * sp).max(1e-12);
    let dvov_dvgs = sig;
    let dvov_dvbs = -sig * dvth_dvbs;

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
    (id, f1, f2, f3, vth, vdsat, region)
}

/// Evaluates the model at terminal voltages (relative to the source):
/// `vgs`, `vds`, `vbs` are the *physical* terminal voltage differences.
pub fn eval_mos(model: &MosModel, w: f64, l: f64, m: f64, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    eval_with(model, &mos_consts(model, w, l, m), vgs, vds, vbs)
}

/// The Newton stamping path: [`eval_mos`] on precomputed [`MosConsts`],
/// returning only the linearization (bit-identical to the corresponding
/// [`eval_mos`] fields).
#[inline]
pub(crate) fn eval_mos_stamp(
    model: &MosModel,
    k: &MosConsts,
    vgs: f64,
    vds: f64,
    vbs: f64,
) -> MosStamp {
    let e = eval_with(model, k, vgs, vds, vbs);
    MosStamp {
        id: e.id,
        gm: e.gm,
        gds: e.gds,
        gmb: e.gmb,
    }
}

/// Shared body of [`eval_mos`] and [`eval_mos_stamp`]; inlined into both
/// so the stamping copy drops the report-only fields.
#[inline(always)]
fn eval_with(model: &MosModel, k: &MosConsts, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    // Map PMOS into the NMOS ("primed") frame.
    let (sign, vgs_p, vds_p, vbs_p) = match model.polarity {
        MosPolarity::Nmos => (1.0, vgs, vds, vbs),
        MosPolarity::Pmos => (-1.0, -vgs, -vds, -vbs),
    };

    let (id_p, gm, gds, gmb, vth, vdsat, region, reversed) = if vds_p >= 0.0 {
        let (id, f1, f2, f3, vth, vdsat, region) = normal_mode(model, k, vgs_p, vds_p, vbs_p);
        (id, f1, f2, f3, vth, vdsat, region, false)
    } else {
        // Swap drain and source: evaluate at (vgd, vsd, vbd).
        let (id_s, f1, f2, f3, vth, vdsat, region) =
            normal_mode(model, k, vgs_p - vds_p, -vds_p, vbs_p - vds_p);
        let id = -id_s;
        let gm = -f1;
        let gds = f1 + f2 + f3;
        let gmb = -f3;
        (id, gm, gds, gmb, vth, vdsat, region, true)
    };

    // Polarity mapping: id flips with sign, derivatives are invariant
    // (two sign flips cancel).
    let id = sign * id_p;
    // A tiny conductance floor keeps the MNA matrix well conditioned when
    // the device is off.
    let gds = gds + 1e-12;

    MosEval {
        id,
        gm,
        gds,
        gmb,
        vth,
        vdsat,
        vsat_margin: vds_p.abs() - vdsat,
        region,
        reversed,
    }
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
mod tests {
    use super::*;

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
