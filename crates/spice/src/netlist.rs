//! Circuit (netlist) construction.

use std::collections::HashMap;

use crate::error::SpiceError;
use crate::mos::{mos_caps, mos_consts, MosCaps, MosConsts, MosModel};
use crate::waveform::Waveform;

/// Index of a circuit node. Node `0` is always ground.
pub type NodeId = usize;

/// A device instance in the netlist.
///
/// The device set is closed by design: the simulator's assembly loops match
/// on this enum directly instead of dispatching through a trait, which keeps
/// the MNA stamps auditable in one place.
#[derive(Debug, Clone)]
pub enum Device {
    /// Linear resistor between `a` and `b` (stored as conductance).
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Conductance \[S\].
        g: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance \[F\].
        c: f64,
    },
    /// Independent voltage source from `p` to `n`.
    VSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Time-domain waveform.
        wave: Waveform,
        /// AC magnitude for small-signal analyses.
        ac_mag: f64,
        /// MNA branch index.
        branch: usize,
    },
    /// Independent current source; positive current flows from `p` through
    /// the source to `n`.
    ISource {
        /// Instance name.
        name: String,
        /// Terminal the current leaves.
        p: NodeId,
        /// Terminal the current enters.
        n: NodeId,
        /// Time-domain waveform.
        wave: Waveform,
        /// AC magnitude for small-signal analyses.
        ac_mag: f64,
    },
    /// Voltage-controlled voltage source: `v(p,n) = gain·v(cp,cn)`.
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
        /// MNA branch index.
        branch: usize,
    },
    /// Voltage-controlled current source: `i(p→n) = gm·v(cp,cn)`.
    Vccs {
        /// Instance name.
        name: String,
        /// Terminal the current leaves.
        p: NodeId,
        /// Terminal the current enters.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// Transconductance \[S\].
        gm: f64,
    },
    /// MOSFET instance.
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Bulk.
        b: NodeId,
        /// Model card.
        model: MosModel,
        /// Drawn width \[m\].
        w: f64,
        /// Drawn length \[m\].
        l: f64,
        /// Parallel multiplier.
        m: f64,
        /// Precomputed constant terminal capacitances.
        caps: MosCaps,
        /// Precomputed large-signal model constants (stamping path).
        consts: MosConsts,
    },
}

impl Device {
    /// Instance name.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor { name, .. }
            | Device::Capacitor { name, .. }
            | Device::VSource { name, .. }
            | Device::ISource { name, .. }
            | Device::Vcvs { name, .. }
            | Device::Vccs { name, .. }
            | Device::Mosfet { name, .. } => name,
        }
    }
}

/// A circuit under construction: named nodes plus a flat device list.
///
/// # Example
///
/// ```
/// use spice::{Circuit, Waveform};
///
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.add_vsource("VIN", vin, 0, Waveform::Dc(1.0))?;
/// ckt.add_resistor("R1", vin, vout, 1e3)?;
/// ckt.add_resistor("R2", vout, 0, 1e3)?;
/// let op = spice::op(&ckt, &spice::SimOptions::default())?;
/// assert!((op.voltage(vout) - 0.5).abs() < 1e-9);
/// # Ok::<(), spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    devices: Vec<Device>,
    device_lookup: HashMap<String, usize>,
    /// Indices of the MOSFETs in `devices`, ascending: the x-dependent
    /// stamps, which the Newton replay walks without visiting every
    /// linear device.
    mosfets: Vec<usize>,
    nbranches: usize,
    /// Incrementally maintained structural fingerprint (see
    /// [`Circuit::topology_id`]).
    topo_hash: u64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

/// Ground node, always node id 0 (also reachable by name `"0"` or `"gnd"`).
pub const GND: NodeId = 0;

impl Circuit {
    /// Creates an empty circuit with only the ground node.
    pub fn new() -> Self {
        let mut node_lookup = HashMap::new();
        node_lookup.insert("0".to_string(), 0);
        node_lookup.insert("gnd".to_string(), 0);
        Circuit {
            node_names: vec!["0".to_string()],
            node_lookup,
            devices: Vec::new(),
            device_lookup: HashMap::new(),
            mosfets: Vec::new(),
            nbranches: 0,
            topo_hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    /// Folds structural facts into the topology fingerprint (FNV-1a).
    fn topo_mix(&mut self, vals: &[usize]) {
        for &v in vals {
            self.topo_hash = (self.topo_hash ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A fingerprint of the circuit *structure*: device kinds, terminal
    /// connectivity and branch assignments — everything that determines
    /// which MNA matrix positions get stamped, and nothing that does not
    /// (device values, waveforms, and geometry are excluded). Two circuits
    /// with equal fingerprints assemble systems with identical sparsity
    /// patterns and identical stamp-write sequences, so solver state keyed
    /// on it (stamp→slot maps, pooled workspaces) transfers between them.
    /// Maintained incrementally; reading it is O(1).
    pub fn topology_id(&self) -> u64 {
        self.topo_hash
    }

    /// Returns the node with the given name, creating it if needed.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_lookup.get(name) {
            return id;
        }
        let id = self.node_names.len();
        self.node_names.push(name.to_string());
        self.node_lookup.insert(name.to_string(), id);
        self.topo_mix(&[1, id]);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if no node has that name.
    pub fn find_node(&self, name: &str) -> Result<NodeId, SpiceError> {
        self.node_lookup
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::UnknownNode {
                name: name.to_string(),
            })
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of MNA branch unknowns (voltage-source-like devices).
    pub fn num_branches(&self) -> usize {
        self.nbranches
    }

    /// Total MNA unknowns: non-ground nodes plus branches.
    pub fn num_unknowns(&self) -> usize {
        self.num_nodes() - 1 + self.nbranches
    }

    /// All devices, in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable device access for analyses that vary source values in place
    /// (DC sweeps). Crate-internal: arbitrary mutation could break the
    /// precomputed capacitance invariants.
    pub(crate) fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Looks up a device index by name.
    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.device_lookup.get(name).copied()
    }

    fn register(&mut self, name: &str) -> Result<(), SpiceError> {
        if self.device_lookup.contains_key(name) {
            return Err(SpiceError::DuplicateDevice {
                name: name.to_string(),
            });
        }
        self.device_lookup
            .insert(name.to_string(), self.devices.len());
        Ok(())
    }

    fn check_value(
        name: &str,
        what: &str,
        v: f64,
        must_be_positive: bool,
    ) -> Result<(), SpiceError> {
        if !v.is_finite() || (must_be_positive && v <= 0.0) {
            return Err(SpiceError::BadValue {
                device: name.to_string(),
                reason: format!("{what} = {v}"),
            });
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and duplicate names.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        r: f64,
    ) -> Result<(), SpiceError> {
        Self::check_value(name, "resistance", r, true)?;
        self.register(name)?;
        self.topo_mix(&[2, a, b]);
        self.devices.push(Device::Resistor {
            name: name.to_string(),
            a,
            b,
            g: 1.0 / r,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite capacitance and duplicate names.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        c: f64,
    ) -> Result<(), SpiceError> {
        if !c.is_finite() || c < 0.0 {
            return Err(SpiceError::BadValue {
                device: name.to_string(),
                reason: format!("capacitance = {c}"),
            });
        }
        self.register(name)?;
        self.topo_mix(&[3, a, b]);
        self.devices.push(Device::Capacitor {
            name: name.to_string(),
            a,
            b,
            c,
        });
        Ok(())
    }

    /// Adds an independent voltage source (AC magnitude 0).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add_vsource_ac(name, p, n, wave, 0.0)
    }

    /// Adds an independent voltage source with an AC magnitude for
    /// small-signal analyses.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_vsource_ac(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
        ac_mag: f64,
    ) -> Result<(), SpiceError> {
        self.register(name)?;
        let branch = self.nbranches;
        self.nbranches += 1;
        self.topo_mix(&[4, p, n, branch]);
        self.devices.push(Device::VSource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac_mag,
            branch,
        });
        Ok(())
    }

    /// Adds an independent current source (positive current `p`→`n`).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_isource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add_isource_ac(name, p, n, wave, 0.0)
    }

    /// Adds an independent current source with an AC magnitude.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn add_isource_ac(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
        ac_mag: f64,
    ) -> Result<(), SpiceError> {
        self.register(name)?;
        self.topo_mix(&[5, p, n]);
        self.devices.push(Device::ISource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac_mag,
        });
        Ok(())
    }

    /// Adds a voltage-controlled voltage source.
    ///
    /// # Errors
    ///
    /// Rejects non-finite gain and duplicate names.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<(), SpiceError> {
        Self::check_value(name, "gain", gain, false)?;
        self.register(name)?;
        let branch = self.nbranches;
        self.nbranches += 1;
        self.topo_mix(&[6, p, n, cp, cn, branch]);
        self.devices.push(Device::Vcvs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gain,
            branch,
        });
        Ok(())
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    ///
    /// Rejects non-finite transconductance and duplicate names.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<(), SpiceError> {
        Self::check_value(name, "gm", gm, false)?;
        self.register(name)?;
        self.topo_mix(&[7, p, n, cp, cn]);
        self.devices.push(Device::Vccs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gm,
        });
        Ok(())
    }

    /// Adds a MOSFET.
    ///
    /// # Errors
    ///
    /// Rejects non-positive geometry or multiplier and duplicate names.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: &MosModel,
        w: f64,
        l: f64,
        m: f64,
    ) -> Result<(), SpiceError> {
        Self::check_value(name, "width", w, true)?;
        Self::check_value(name, "length", l, true)?;
        Self::check_value(name, "multiplier", m, true)?;
        self.register(name)?;
        self.topo_mix(&[8, d, g, s, b]);
        let caps = mos_caps(model, w, l, m);
        let consts = mos_consts(model, w, l, m);
        self.mosfets.push(self.devices.len());
        self.devices.push(Device::Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            b,
            model: model.clone(),
            w,
            l,
            m,
            caps,
            consts,
        });
        Ok(())
    }

    /// Updates the AC magnitude of an independent source, so one circuit
    /// (and one operating point) can drive several small-signal excitation
    /// patterns (differential, common-mode, supply).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the name is not an
    /// independent V/I source.
    pub fn set_ac_mag(&mut self, name: &str, mag: f64) -> Result<(), SpiceError> {
        let idx =
            self.device_lookup
                .get(name)
                .copied()
                .ok_or_else(|| SpiceError::UnknownDevice {
                    name: name.to_string(),
                })?;
        match &mut self.devices[idx] {
            Device::VSource { ac_mag, .. } | Device::ISource { ac_mag, .. } => {
                *ac_mag = mag;
                Ok(())
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Looks up a device by name for in-place value updates.
    fn device_mut(&mut self, name: &str) -> Result<&mut Device, SpiceError> {
        let idx =
            self.device_lookup
                .get(name)
                .copied()
                .ok_or_else(|| SpiceError::UnknownDevice {
                    name: name.to_string(),
                })?;
        Ok(&mut self.devices[idx])
    }

    /// Updates a MOSFET's drawn geometry and multiplier in place,
    /// recomputing its precomputed terminal capacitances. Topology
    /// (terminals, device order, [`Circuit::topology_id`]) is unchanged, so
    /// solver state keyed on the topology stays valid — this is how sizing
    /// testbenches re-parameterize a prebuilt template circuit per
    /// candidate instead of rebuilding the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not a MOSFET, or
    /// [`SpiceError::BadValue`] for non-positive geometry.
    pub fn set_mosfet_geometry(
        &mut self,
        name: &str,
        w: f64,
        l: f64,
        m: f64,
    ) -> Result<(), SpiceError> {
        Self::check_value(name, "width", w, true)?;
        Self::check_value(name, "length", l, true)?;
        Self::check_value(name, "multiplier", m, true)?;
        match self.device_mut(name)? {
            Device::Mosfet {
                model,
                w: dw,
                l: dl,
                m: dm,
                caps,
                consts,
                ..
            } => {
                *dw = w;
                *dl = l;
                *dm = m;
                *caps = mos_caps(model, w, l, m);
                *consts = mos_consts(model, w, l, m);
                Ok(())
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Updates a capacitor's value in place (see
    /// [`Circuit::set_mosfet_geometry`] for the template-update pattern).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not a capacitor,
    /// or [`SpiceError::BadValue`] for a negative/non-finite value.
    pub fn set_capacitance(&mut self, name: &str, c: f64) -> Result<(), SpiceError> {
        if !c.is_finite() || c < 0.0 {
            return Err(SpiceError::BadValue {
                device: name.to_string(),
                reason: format!("capacitance = {c}"),
            });
        }
        match self.device_mut(name)? {
            Device::Capacitor { c: dc, .. } => {
                *dc = c;
                Ok(())
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Updates a resistor's value in place (see
    /// [`Circuit::set_mosfet_geometry`] for the template-update pattern).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not a resistor,
    /// or [`SpiceError::BadValue`] for a non-positive value.
    pub fn set_resistance(&mut self, name: &str, r: f64) -> Result<(), SpiceError> {
        Self::check_value(name, "resistance", r, true)?;
        match self.device_mut(name)? {
            Device::Resistor { g, .. } => {
                *g = 1.0 / r;
                Ok(())
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Replaces the waveform of an independent V/I source in place (see
    /// [`Circuit::set_mosfet_geometry`] for the template-update pattern).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not an
    /// independent source.
    pub fn set_source_wave(&mut self, name: &str, wave: Waveform) -> Result<(), SpiceError> {
        match self.device_mut(name)? {
            Device::VSource { wave: dw, .. } | Device::ISource { wave: dw, .. } => {
                *dw = wave;
                Ok(())
            }
            _ => Err(SpiceError::UnknownDevice {
                name: name.to_string(),
            }),
        }
    }

    /// Sets an independent source to a DC value (convenience over
    /// [`Circuit::set_source_wave`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if `name` is not an
    /// independent source.
    pub fn set_source_dc(&mut self, name: &str, value: f64) -> Result<(), SpiceError> {
        self.set_source_wave(name, Waveform::Dc(value))
    }

    /// Clears the AC magnitude of every independent source.
    pub fn clear_ac_mags(&mut self) {
        for dev in &mut self.devices {
            if let Device::VSource { ac_mag, .. } | Device::ISource { ac_mag, .. } = dev {
                *ac_mag = 0.0;
            }
        }
    }

    /// Iterates over all capacitive element terms `(a, b, C)`, expanding the
    /// constant MOSFET capacitances. Used by the transient, AC and noise
    /// engines to build the (constant) dynamic part of the MNA system.
    pub fn capacitive_elements(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        for dev in &self.devices {
            match dev {
                Device::Capacitor { a, b, c, .. } => out.push((*a, *b, *c)),
                Device::Mosfet {
                    d, g, s, b, caps, ..
                } => {
                    out.push((*g, *s, caps.cgs));
                    out.push((*g, *d, caps.cgd));
                    out.push((*g, *b, caps.cgb));
                    out.push((*d, *b, caps.cdb));
                    out.push((*s, *b, caps.csb));
                }
                _ => {}
            }
        }
        out
    }

    /// Total number of MOSFET devices (counting multipliers as one instance).
    pub fn num_mosfets(&self) -> usize {
        self.mosfets.len()
    }

    /// The MOSFETs, in device order.
    pub(crate) fn mosfets(&self) -> impl Iterator<Item = &Device> {
        self.mosfets.iter().map(|&i| &self.devices[i])
    }

    /// Sum of MOSFET multipliers — the "expanded" device count an extraction
    /// tool would report for arrayed layouts.
    pub fn expanded_mosfet_count(&self) -> f64 {
        self.devices
            .iter()
            .filter_map(|d| match d {
                Device::Mosfet { m, .. } => Some(*m),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::MosPolarity;

    fn model() -> MosModel {
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

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.find_node("gnd").unwrap(), GND);
        assert!(c.find_node("missing").is_err());
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn unknown_counting() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_vcvs("E1", b, GND, a, GND, 2.0).unwrap();
        // 2 non-ground nodes + 2 branches.
        assert_eq!(c.num_unknowns(), 4);
        assert_eq!(c.num_branches(), 2);
    }

    #[test]
    fn rejects_bad_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, GND, -5.0).is_err());
        assert!(c.add_resistor("R2", a, GND, f64::NAN).is_err());
        assert!(c.add_capacitor("C1", a, GND, -1e-12).is_err());
        let m = model();
        assert!(c
            .add_mosfet("M1", a, a, GND, GND, &m, 0.0, 1e-6, 1.0)
            .is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        assert!(matches!(
            c.add_resistor("R1", a, GND, 2e3),
            Err(SpiceError::DuplicateDevice { .. })
        ));
    }

    #[test]
    fn capacitive_expansion_includes_mosfets() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add_capacitor("CL", d, GND, 1e-12).unwrap();
        let m = model();
        c.add_mosfet("M1", d, g, GND, GND, &m, 10e-6, 1e-6, 1.0)
            .unwrap();
        let caps = c.capacitive_elements();
        assert_eq!(caps.len(), 6); // 1 explicit + 5 intrinsic
        assert!(caps.iter().all(|&(_, _, c)| c >= 0.0));
    }

    #[test]
    fn topology_id_tracks_structure_not_values() {
        let build = |r: f64, w: f64| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let m = model();
            c.add_vsource("V1", a, GND, Waveform::Dc(r)).unwrap();
            c.add_resistor("R1", a, GND, r).unwrap();
            c.add_mosfet("M1", a, a, GND, GND, &m, w, 1e-6, 1.0)
                .unwrap();
            c
        };
        let c1 = build(1e3, 1e-6);
        let c2 = build(7e3, 9e-6);
        assert_eq!(c1.topology_id(), c2.topology_id());
        // In-place value updates keep the fingerprint.
        let mut c3 = c1.clone();
        c3.set_resistance("R1", 5e3).unwrap();
        c3.set_mosfet_geometry("M1", 2e-6, 0.5e-6, 4.0).unwrap();
        c3.set_source_dc("V1", 0.5).unwrap();
        assert_eq!(c3.topology_id(), c1.topology_id());
        // Different wiring changes it.
        let mut c4 = build(1e3, 1e-6);
        let b = c4.node("b");
        c4.add_resistor("R2", b, GND, 1e3).unwrap();
        assert_ne!(c4.topology_id(), c1.topology_id());
    }

    #[test]
    fn setters_update_values_and_reject_mismatches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = model();
        c.add_resistor("R1", a, GND, 1e3).unwrap();
        c.add_capacitor("C1", a, GND, 1e-12).unwrap();
        c.add_mosfet("M1", a, a, GND, GND, &m, 1e-6, 1e-6, 1.0)
            .unwrap();
        c.add_vsource("V1", a, GND, Waveform::Dc(1.0)).unwrap();
        c.set_resistance("R1", 2e3).unwrap();
        c.set_capacitance("C1", 3e-12).unwrap();
        c.set_mosfet_geometry("M1", 4e-6, 2e-6, 2.0).unwrap();
        c.set_source_dc("V1", 2.5).unwrap();
        match &c.devices()[0] {
            Device::Resistor { g, .. } => assert!((g - 1.0 / 2e3).abs() < 1e-18),
            _ => unreachable!(),
        }
        match &c.devices()[1] {
            Device::Capacitor { c, .. } => assert_eq!(*c, 3e-12),
            _ => unreachable!(),
        }
        match &c.devices()[2] {
            Device::Mosfet { w, l, m, caps, .. } => {
                assert_eq!((*w, *l, *m), (4e-6, 2e-6, 2.0));
                // Capacitances were recomputed for the new geometry.
                assert_eq!(caps.cgs, mos_caps(&model(), 4e-6, 2e-6, 2.0).cgs);
            }
            _ => unreachable!(),
        }
        match &c.devices()[3] {
            Device::VSource { wave, .. } => assert_eq!(wave.dc_value(), 2.5),
            _ => unreachable!(),
        }
        // Wrong kinds and unknown names are rejected.
        assert!(c.set_resistance("C1", 1e3).is_err());
        assert!(c.set_capacitance("R1", 1e-12).is_err());
        assert!(c.set_mosfet_geometry("R1", 1e-6, 1e-6, 1.0).is_err());
        assert!(c.set_source_dc("M1", 1.0).is_err());
        assert!(c.set_resistance("missing", 1e3).is_err());
        assert!(c.set_resistance("R1", -1.0).is_err());
        assert!(c.set_capacitance("C1", f64::NAN).is_err());
        assert!(c.set_mosfet_geometry("M1", 0.0, 1e-6, 1.0).is_err());
    }

    #[test]
    fn device_counts() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = model();
        c.add_mosfet("M1", a, a, GND, GND, &m, 1e-6, 1e-6, 8.0)
            .unwrap();
        c.add_mosfet("M2", a, a, GND, GND, &m, 1e-6, 1e-6, 24.0)
            .unwrap();
        assert_eq!(c.num_mosfets(), 2);
        assert_eq!(c.expanded_mosfet_count(), 32.0);
    }
}
