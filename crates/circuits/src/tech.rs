//! Technology parameter sets and the PVT corner plane.
//!
//! The paper's building blocks use a 180 nm CMOS process and its industrial
//! circuits "a very advanced technology node". Both PDKs are proprietary, so
//! this module provides generic Level-1+ parameter sets with representative
//! magnitudes: a 180nm-class card (1.8 V) and a FinFET-era-class card
//! (0.75 V, higher drive, stronger channel-length modulation). They stand
//! in for the proprietary PDKs and their foundry SPICE models: absolute
//! performance numbers differ from silicon, but the optimization landscape
//! (headroom, gain/speed/power/noise trade-offs) is preserved, and that
//! landscape is what the sizing methods are compared on.
//!
//! On top of the nominal cards sits the **PVT scenario plane**: a
//! [`Corner`] combines a five-letter [`ProcessCorner`] (TT/FF/SS/SF/FS via
//! threshold/mobility derating), a supply scale, and an ambient
//! temperature. [`Technology::at_corner`] derates the model cards (the
//! temperature part flows through [`MosModel::at_temperature`], the same
//! Kelvin value that [`Corner::options`] writes into
//! [`SimOptions::temp`] for the noise analyses), and [`CornerSet`] names
//! the standard sign-off sets the testbenches evaluate across.

use spice::{MosModel, MosPolarity, SimOptions, T_NOM};

/// A process card: device models plus the nominal supply.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Display name.
    pub name: &'static str,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub pmos: MosModel,
    /// Nominal supply voltage \[V\].
    pub vdd: f64,
    /// Minimum drawn channel length \[m\].
    pub l_min: f64,
}

/// Per-flavor device speed at a process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSpeed {
    /// Slow silicon: higher threshold, lower mobility.
    Slow,
    /// Typical silicon: the nominal card, untouched.
    Typical,
    /// Fast silicon: lower threshold, higher mobility.
    Fast,
}

impl DeviceSpeed {
    /// Multiplier on the threshold magnitude `vth0`.
    fn vth_scale(self) -> f64 {
        match self {
            DeviceSpeed::Slow => 1.08,
            DeviceSpeed::Typical => 1.0,
            DeviceSpeed::Fast => 0.92,
        }
    }

    /// Multiplier on the transconductance parameter `kp`.
    fn kp_scale(self) -> f64 {
        match self {
            DeviceSpeed::Slow => 0.85,
            DeviceSpeed::Typical => 1.0,
            DeviceSpeed::Fast => 1.15,
        }
    }

    /// Derates one model card (identity for [`DeviceSpeed::Typical`], so
    /// the TT corner keeps the nominal card bit-identical).
    fn derate(self, card: &MosModel) -> MosModel {
        if self == DeviceSpeed::Typical {
            return card.clone();
        }
        let mut out = card.clone();
        out.vth0 = card.vth0 * self.vth_scale();
        out.kp = card.kp * self.kp_scale();
        out
    }
}

/// The five standard process corners; first letter is the NMOS flavor,
/// second the PMOS flavor (S = slow, T = typical, F = fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessCorner {
    /// Typical/typical — the nominal silicon.
    TT,
    /// Fast/fast.
    FF,
    /// Slow/slow.
    SS,
    /// Slow NMOS / fast PMOS.
    SF,
    /// Fast NMOS / slow PMOS.
    FS,
}

impl ProcessCorner {
    /// NMOS flavor at this corner.
    pub fn nmos_speed(self) -> DeviceSpeed {
        match self {
            ProcessCorner::TT => DeviceSpeed::Typical,
            ProcessCorner::FF | ProcessCorner::FS => DeviceSpeed::Fast,
            ProcessCorner::SS | ProcessCorner::SF => DeviceSpeed::Slow,
        }
    }

    /// PMOS flavor at this corner.
    pub fn pmos_speed(self) -> DeviceSpeed {
        match self {
            ProcessCorner::TT => DeviceSpeed::Typical,
            ProcessCorner::FF | ProcessCorner::SF => DeviceSpeed::Fast,
            ProcessCorner::SS | ProcessCorner::FS => DeviceSpeed::Slow,
        }
    }

    /// Lower-case two-letter label (`"tt"`, `"ff"`, …).
    pub fn label(self) -> &'static str {
        match self {
            ProcessCorner::TT => "tt",
            ProcessCorner::FF => "ff",
            ProcessCorner::SS => "ss",
            ProcessCorner::SF => "sf",
            ProcessCorner::FS => "fs",
        }
    }
}

/// One PVT scenario point: process corner, supply scale, temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Process corner (threshold/mobility derating of both cards).
    pub process: ProcessCorner,
    /// Multiplier on every supply rail (1.0 = nominal).
    pub vdd_scale: f64,
    /// Ambient temperature \[K\].
    pub temp: f64,
}

impl Corner {
    /// Creates a corner.
    pub fn new(process: ProcessCorner, vdd_scale: f64, temp: f64) -> Self {
        Corner {
            process,
            vdd_scale,
            temp,
        }
    }

    /// The nominal corner: TT silicon, nominal supply, `T_NOM` (300 K).
    pub fn nominal() -> Self {
        Corner::new(ProcessCorner::TT, 1.0, T_NOM)
    }

    /// True when every derating is the identity — evaluation at such a
    /// corner is bit-identical to the legacy nominal path.
    pub fn is_nominal(&self) -> bool {
        self.process == ProcessCorner::TT && self.vdd_scale == 1.0 && self.temp == T_NOM
    }

    /// Human-readable label, e.g. `"ss_v0.950_398.1K"`. Three supply and
    /// one temperature decimals keep labels unique for fine-grained
    /// user-built grids (per-corner reporting keys on them).
    pub fn label(&self) -> String {
        format!(
            "{}_v{:.3}_{:.1}K",
            self.process.label(),
            self.vdd_scale,
            self.temp
        )
    }

    /// Simulator options for this corner: a copy of `base` with the
    /// corner's temperature — the same Kelvin value the model-card
    /// derating uses — written into [`SimOptions::temp`], so the noise
    /// analyses see the corner ambient too.
    pub fn options(&self, base: &SimOptions) -> SimOptions {
        let mut opts = base.clone();
        opts.temp = self.temp;
        opts
    }
}

/// A named set of PVT corners — the scenario plane a testbench evaluates
/// each candidate across.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSet {
    /// Display name of the set.
    pub name: &'static str,
    /// The corners, in evaluation order. Index 0 is the reference corner
    /// (nominal in every standard set).
    pub corners: Vec<Corner>,
}

/// The scenario plane of a corner-capable testbench `T`: its corner set
/// plus one fully-built evaluation plane per corner after the reference
/// one. Plane 0 is the owning testbench itself.
#[derive(Debug, Clone)]
pub(crate) struct CornerPlanes<T> {
    set: CornerSet,
    extra: Vec<T>,
}

impl<T> Default for CornerPlanes<T> {
    /// No corners and no planes: the bookkeeping of a plane that another
    /// testbench's `CornerPlanes` owns.
    fn default() -> Self {
        CornerPlanes {
            set: CornerSet {
                name: "plane",
                corners: Vec::new(),
            },
            extra: Vec::new(),
        }
    }
}

impl<T> CornerPlanes<T> {
    /// Builds one plane per corner of `set` with `build_plane` and returns
    /// the reference plane (corner 0) beside the bookkeeping holding the
    /// set and the other planes — the shared body of every corner-capable
    /// testbench's `with_corners` constructor.
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub(crate) fn build(set: CornerSet, build_plane: impl FnMut(&Corner) -> T) -> (T, Self) {
        assert!(!set.is_empty(), "corner set must not be empty");
        let mut extra: Vec<T> = set.corners.iter().map(build_plane).collect();
        let base = extra.remove(0);
        (base, CornerPlanes { set, extra })
    }

    /// The corner set.
    pub(crate) fn set(&self) -> &CornerSet {
        &self.set
    }

    /// The evaluation plane of corner `k`: `base` (the owning testbench)
    /// for corner 0.
    pub(crate) fn get<'a>(&'a self, base: &'a T, k: usize) -> &'a T {
        if k == 0 {
            base
        } else {
            &self.extra[k - 1]
        }
    }
}

/// Cold military/industrial extreme (−40 °C) \[K\].
pub const TEMP_COLD: f64 = 233.15;
/// Hot sign-off extreme (+125 °C) \[K\].
pub const TEMP_HOT: f64 = 398.15;

impl CornerSet {
    /// The single nominal corner — the legacy evaluation plane.
    pub fn nominal() -> Self {
        CornerSet {
            name: "nominal",
            corners: vec![Corner::nominal()],
        }
    }

    /// The standard 5-corner sign-off set: nominal, the two worst-case
    /// full-parallel corners (FF cold at +5% supply, SS hot at −5%), and
    /// the two mixed corners at nominal supply (SF hot, FS cold).
    pub fn pvt5() -> Self {
        CornerSet {
            name: "pvt5",
            corners: vec![
                Corner::nominal(),
                Corner::new(ProcessCorner::FF, 1.05, TEMP_COLD),
                Corner::new(ProcessCorner::SS, 0.95, TEMP_HOT),
                Corner::new(ProcessCorner::SF, 1.0, TEMP_HOT),
                Corner::new(ProcessCorner::FS, 1.0, TEMP_COLD),
            ],
        }
    }

    /// Full factorial grid over the given axes — "as many scenarios as you
    /// can imagine". The nominal corner is always the reference at index 0:
    /// if the grid already contains it (anywhere), it is moved to the
    /// front rather than duplicated, so no candidate ever simulates the
    /// same corner twice and corner labels stay unique.
    pub fn full_grid(processes: &[ProcessCorner], vdd_scales: &[f64], temps: &[f64]) -> Self {
        let mut corners = Vec::with_capacity(processes.len() * vdd_scales.len() * temps.len() + 1);
        for &p in processes {
            for &v in vdd_scales {
                for &t in temps {
                    corners.push(Corner::new(p, v, t));
                }
            }
        }
        match corners.iter().position(Corner::is_nominal) {
            Some(pos) => {
                let nominal = corners.remove(pos);
                corners.insert(0, nominal);
            }
            None => corners.insert(0, Corner::nominal()),
        }
        CornerSet {
            name: "full-grid",
            corners,
        }
    }

    /// Number of corners in the set.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// True when the set is empty (never the case for the named sets).
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }
}

impl Technology {
    /// The technology re-evaluated at a PVT corner: both model cards pass
    /// through the process derating and the Level-1 temperature update
    /// ([`MosModel::at_temperature`]), and the supply is scaled. At the
    /// nominal corner the result is bit-identical to `self`, so corner
    /// plane index 0 *is* the legacy nominal technology.
    pub fn at_corner(&self, corner: &Corner) -> Technology {
        if corner.is_nominal() {
            return self.clone();
        }
        Technology {
            name: self.name,
            nmos: corner
                .process
                .nmos_speed()
                .derate(&self.nmos)
                .at_temperature(corner.temp),
            pmos: corner
                .process
                .pmos_speed()
                .derate(&self.pmos)
                .at_temperature(corner.temp),
            vdd: self.vdd * corner.vdd_scale,
            l_min: self.l_min,
        }
    }
}

/// Generic 180nm-class process (1.8 V) used by the folded-cascode OTA and
/// the StrongARM latch experiments.
pub fn tech_180nm() -> Technology {
    let nmos = MosModel {
        polarity: MosPolarity::Nmos,
        vth0: 0.45,
        kp: 300e-6,
        clm: 0.03e-6,
        gamma: 0.40,
        phi: 0.80,
        nsub: 1.4,
        cox: 8.5e-3,
        cov: 3.0e-10,
        cj: 1.0e-3,
        ldiff: 0.5e-6,
        kf: 4.0e-25,
        af: 1.0,
        noise_gamma: 2.0 / 3.0,
    };
    let pmos = MosModel {
        polarity: MosPolarity::Pmos,
        vth0: 0.45,
        kp: 80e-6,
        kf: 1.5e-25,
        ..nmos.clone()
    };
    Technology {
        name: "generic-180nm",
        nmos,
        pmos,
        vdd: 1.8,
        l_min: 0.18e-6,
    }
}

/// Generic advanced-node-class process (0.75 V) used by the industrial
/// circuits (inverter chain, level shifter, LDO, CTLE).
pub fn tech_advanced() -> Technology {
    let nmos = MosModel {
        polarity: MosPolarity::Nmos,
        vth0: 0.30,
        kp: 650e-6,
        clm: 0.012e-6,
        gamma: 0.25,
        phi: 0.85,
        nsub: 1.35,
        cox: 2.4e-2,
        cov: 6.0e-10,
        cj: 2.0e-3,
        ldiff: 0.06e-6,
        kf: 8.0e-25,
        af: 1.0,
        noise_gamma: 1.0,
    };
    let pmos = MosModel {
        polarity: MosPolarity::Pmos,
        vth0: 0.30,
        kp: 500e-6,
        kf: 3.0e-25,
        ..nmos.clone()
    };
    Technology {
        name: "generic-advanced",
        nmos,
        pmos,
        vdd: 0.75,
        l_min: 0.02e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice::mos::eval_mos;

    #[test]
    fn cards_are_physical() {
        for t in [tech_180nm(), tech_advanced()] {
            assert!(t.vdd > 0.0);
            assert!(t.l_min > 0.0);
            assert!(t.nmos.vth0 < t.vdd, "{}: vth must leave headroom", t.name);
            assert!(t.pmos.kp <= t.nmos.kp, "{}: holes are slower", t.name);
            assert_eq!(t.nmos.polarity, MosPolarity::Nmos);
            assert_eq!(t.pmos.polarity, MosPolarity::Pmos);
        }
    }

    #[test]
    fn drive_current_magnitudes_are_sane() {
        // A 10/0.18 µm NMOS at full gate drive in 180nm should carry
        // hundreds of µA to a few mA.
        let t = tech_180nm();
        let e = eval_mos(&t.nmos, 10e-6, 0.18e-6, 1.0, t.vdd, t.vdd, 0.0);
        assert!(e.id > 100e-6 && e.id < 50e-3, "id = {}", e.id);
        // Advanced node: stronger per-µm drive at a lower supply.
        let ta = tech_advanced();
        let ea = eval_mos(&ta.nmos, 1e-6, 0.02e-6, 1.0, ta.vdd, ta.vdd, 0.0);
        assert!(ea.id > 100e-6, "advanced id = {}", ea.id);
    }

    #[test]
    fn advanced_node_has_more_clm() {
        let t180 = tech_180nm();
        let tadv = tech_advanced();
        // At the respective minimum lengths, the advanced node's lambda is
        // larger (worse intrinsic gain), as in real scaled processes.
        assert!(tadv.nmos.lambda(tadv.l_min) > t180.nmos.lambda(t180.l_min));
    }

    #[test]
    fn nominal_corner_is_the_identity() {
        for t in [tech_180nm(), tech_advanced()] {
            let c = t.at_corner(&Corner::nominal());
            assert_eq!(t, c);
            assert_eq!(t.vdd.to_bits(), c.vdd.to_bits());
            assert_eq!(t.nmos.vth0.to_bits(), c.nmos.vth0.to_bits());
            assert_eq!(t.nmos.kp.to_bits(), c.nmos.kp.to_bits());
        }
        assert!(Corner::nominal().is_nominal());
        assert!(!Corner::new(ProcessCorner::FF, 1.0, T_NOM).is_nominal());
        assert!(!Corner::new(ProcessCorner::TT, 1.05, T_NOM).is_nominal());
        assert!(!Corner::new(ProcessCorner::TT, 1.0, TEMP_HOT).is_nominal());
    }

    #[test]
    fn process_corners_derate_the_expected_flavor() {
        let t = tech_180nm();
        let ff = t.at_corner(&Corner::new(ProcessCorner::FF, 1.0, T_NOM));
        let ss = t.at_corner(&Corner::new(ProcessCorner::SS, 1.0, T_NOM));
        let sf = t.at_corner(&Corner::new(ProcessCorner::SF, 1.0, T_NOM));
        assert!(ff.nmos.vth0 < t.nmos.vth0 && ff.nmos.kp > t.nmos.kp);
        assert!(ss.nmos.vth0 > t.nmos.vth0 && ss.nmos.kp < t.nmos.kp);
        // SF: slow NMOS, fast PMOS.
        assert!(sf.nmos.vth0 > t.nmos.vth0);
        assert!(sf.pmos.vth0 < t.pmos.vth0);
        // Supply untouched at these corners.
        assert_eq!(sf.vdd.to_bits(), t.vdd.to_bits());
    }

    #[test]
    fn corner_scales_supply_and_temperature_flows_to_options() {
        let t = tech_advanced();
        let c = Corner::new(ProcessCorner::SS, 0.95, TEMP_HOT);
        let tc = t.at_corner(&c);
        assert!((tc.vdd - 0.95 * t.vdd).abs() < 1e-15);
        let opts = c.options(&spice::SimOptions::default());
        assert_eq!(opts.temp, TEMP_HOT);
        // Everything else untouched.
        assert_eq!(opts.max_nr_iters, spice::SimOptions::default().max_nr_iters);
    }

    #[test]
    fn named_sets_have_the_advertised_shape() {
        let nom = CornerSet::nominal();
        assert_eq!(nom.len(), 1);
        assert!(nom.corners[0].is_nominal());
        let pvt = CornerSet::pvt5();
        assert_eq!(pvt.len(), 5);
        assert!(pvt.corners[0].is_nominal(), "index 0 is the reference");
        // Every non-reference corner actually moves something.
        for c in &pvt.corners[1..] {
            assert!(!c.is_nominal());
        }
        // Labels are unique (they key per-corner reporting).
        let labels: Vec<String> = pvt.corners.iter().map(Corner::label).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let grid = CornerSet::full_grid(
            &[ProcessCorner::TT, ProcessCorner::SS],
            &[0.95, 1.05],
            &[T_NOM, TEMP_HOT],
        );
        // 2·2·2 grid plus the prepended nominal reference.
        assert_eq!(grid.len(), 9);
        assert!(grid.corners[0].is_nominal());
    }

    #[test]
    fn full_grid_never_duplicates_the_nominal_corner() {
        // Grid contains nominal, but not at index 0: it must be *moved*
        // to the front, not duplicated (a duplicate would simulate the
        // same corner twice per candidate and break label uniqueness).
        let grid = CornerSet::full_grid(&[ProcessCorner::SS, ProcessCorner::TT], &[1.0], &[T_NOM]);
        assert_eq!(grid.len(), 2);
        assert!(grid.corners[0].is_nominal());
        assert_eq!(grid.corners.iter().filter(|c| c.is_nominal()).count(), 1);
        let labels: Vec<String> = grid.corners.iter().map(Corner::label).collect();
        assert_ne!(labels[0], labels[1]);
    }
}
