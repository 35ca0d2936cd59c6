//! Deterministic parasitic RC-mesh workloads — the post-layout-scale
//! netlists of several hundred to a thousand unknowns.
//!
//! Pre-layout netlists in this workspace are n ≈ 30–120 unknowns; an
//! extracted (post-layout) industrial block is hundreds to thousands,
//! dominated by parasitic RC structure. This module generates that regime
//! two ways:
//!
//! - [`build_rc_grid`] — a standalone rectangular resistor grid with
//!   grounded capacitors and a corner-to-corner current path, the
//!   canonical extraction-style topology whose factorization fill-in
//!   produces dense trailing blocks. Used by the `sparse_scaling` bench
//!   and the determinism suites.
//! - [`apply_post_layout`] / [`update_post_layout`] — distributed RC
//!   ladders layered on an existing circuit: every estimated node
//!   capacitance (the [`crate::parasitics`] MLParest stand-in) is split
//!   into an open-ended multi-segment RC line instead of one lumped cap,
//!   multiplying the unknown count the way real extraction does.
//!   [`crate::FoldedCascodeOta::post_layout`] builds its testbenches
//!   through these.
//!
//! Everything is a pure function of its inputs — element values use a
//! fixed xorshift stream seeded by the node index, so the same `n` always
//! yields the bit-identical circuit (the determinism contract extends to
//! workload generation).

use spice::{Circuit, SpiceError, Waveform, GND};

use crate::parasitics::{node_caps, ParasiticConfig};

/// Per-segment series resistance \[Ω\] of a generated grid edge or ladder
/// segment, before jitter. Extraction-typical mid-level metal numbers.
const GRID_BASE_RES: f64 = 50.0;

/// Per-node grounded capacitance \[F\] of a generated grid node, before
/// jitter.
const GRID_BASE_CAP: f64 = 1.0e-15;

/// Deterministic value jitter in `[0, 1)` from a node/edge index — a
/// splitmix-style hash, so neighboring indices decorrelate fully.
fn jitter(k: u64) -> f64 {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds an extraction-style RC grid with exactly `n` MNA unknowns
/// (`n - 1` grid nodes plus one driver branch): nodes laid out row-major
/// in a near-square rectangle (last row partial), resistors between
/// horizontal and vertical neighbors, a grounded capacitor at every node,
/// a DC/AC voltage driver at the first node, and a load resistor at the
/// last node so a real current distribution flows corner to corner.
///
/// On top of the nearest-neighbor mesh, every node couples resistively to
/// its diagonal neighbors and to its pitch-2 and pitch-3 neighbors in each
/// direction, with proportionally weaker conductances — the reduced
/// network of a multi-layer extraction, where overlapping wires on
/// adjacent metal layers and via stitching connect beyond the abutting
/// cell. This longer-range coupling is what gives post-layout matrices
/// their characteristic fill-in: factorization produces dense trailing
/// blocks.
///
/// Element values carry deterministic ±50% jitter so no two pivots tie
/// artificially; the circuit is a pure function of `n`.
///
/// # Panics
///
/// Panics if `n < 2` (one grid node plus the driver branch is the minimum)
/// or netlist insertion fails (impossible for generated names).
pub fn build_rc_grid(n: usize) -> Circuit {
    assert!(n >= 2, "RC grid needs at least 2 unknowns, got {n}");
    let nodes = n - 1;
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let mut ckt = Circuit::new();
    let ids: Vec<usize> = (0..nodes).map(|k| ckt.node(&format!("g{k}"))).collect();
    for k in 0..nodes {
        let row = k / cols;
        let col = k % cols;
        if col + 1 < cols && k + 1 < nodes {
            let r = GRID_BASE_RES * (0.5 + jitter(2 * k as u64));
            ckt.add_resistor(&format!("RH{k}"), ids[k], ids[k + 1], r)
                .expect("generated horizontal resistor");
        }
        if k + cols < nodes {
            let r = GRID_BASE_RES * (0.5 + jitter(2 * k as u64 + 1));
            ckt.add_resistor(&format!("RV{k}"), ids[k], ids[k + cols], r)
                .expect("generated vertical resistor");
        }
        // Adjacent-layer coupling: diagonals at 2× the base resistance,
        // pitch-2 at 4×, pitch-3 at 8× (coupling falls off with distance).
        let coupling: [(usize, bool, f64, &str); 12] = [
            (cols + 1, col + 1 < cols, 2.0, "a"),
            (cols.wrapping_sub(1), col > 0 && cols > 1, 2.0, "b"),
            (2, col + 2 < cols, 4.0, "c"),
            (2 * cols, true, 4.0, "d"),
            (3, col + 3 < cols, 8.0, "e"),
            (3 * cols, true, 8.0, "f"),
            (2 * cols + 2, col + 2 < cols, 6.0, "g"),
            (2 * cols - 2, col > 1, 6.0, "h"),
            (3 * cols + 3, col + 3 < cols, 10.0, "i"),
            (3 * cols - 3, col > 2, 10.0, "j"),
            (4, col + 4 < cols, 12.0, "m"),
            (4 * cols, true, 12.0, "n"),
        ];
        for (j, &(step, in_row, factor, tag)) in coupling.iter().enumerate() {
            if in_row && k + step < nodes {
                let r = GRID_BASE_RES
                    * factor
                    * (0.5 + jitter(0x2_0000_0000 + 12 * k as u64 + j as u64));
                ckt.add_resistor(&format!("RC{k}{tag}"), ids[k], ids[k + step], r)
                    .expect("generated coupling resistor");
            }
        }
        let c = GRID_BASE_CAP * (0.5 + jitter(0x1_0000_0000 + k as u64));
        ckt.add_capacitor(&format!("CG{k}"), ids[k], GND, c)
            .expect("generated grounded capacitor");
        let _ = row;
    }
    ckt.add_vsource_ac("VDRV", ids[0], GND, Waveform::Dc(1.0), 1.0)
        .expect("generated driver");
    ckt.add_resistor("RLOAD", ids[nodes - 1], GND, 1e3)
        .expect("generated load");
    debug_assert_eq!(ckt.num_unknowns(), n);
    ckt
}

/// Distributed-parasitic configuration for [`apply_post_layout`].
#[derive(Debug, Clone)]
pub struct PostLayoutConfig {
    /// RC segments per node ladder (each meshed node adds this many
    /// unknowns).
    pub segments: usize,
    /// Series resistance per ladder segment \[Ω\].
    pub seg_resistance: f64,
    /// The node-capacitance estimator whose per-node totals are split
    /// across the ladder.
    pub parasitics: ParasiticConfig,
}

impl Default for PostLayoutConfig {
    fn default() -> Self {
        PostLayoutConfig {
            segments: 8,
            seg_resistance: GRID_BASE_RES,
            parasitics: ParasiticConfig::default(),
        }
    }
}

/// Replaces the lumped parasitic estimate of every non-ground node with an
/// open-ended distributed RC line: `segments` series resistors
/// (`RPAR_<node>__s<i>`) chaining into internal nodes, each carrying an
/// equal share of the node's estimated capacitance
/// (`CPAR_<node>__s<i>`). Which nodes get ladders depends only on
/// connectivity, so the set inserted here is exactly the set
/// [`update_post_layout`] refreshes after a resize.
///
/// Returns the number of nodes meshed.
///
/// # Errors
///
/// Propagates netlist errors (duplicate names if applied twice).
pub fn apply_post_layout(ckt: &mut Circuit, cfg: &PostLayoutConfig) -> Result<usize, SpiceError> {
    let cap = node_caps(ckt, &cfg.parasitics);
    let mut meshed = 0;
    for (node, c) in cap.iter().enumerate().skip(1) {
        if *c <= 0.0 {
            continue;
        }
        let name = ckt.node_name(node).to_string();
        let per_seg = *c / cfg.segments as f64;
        let mut prev = node;
        for i in 0..cfg.segments {
            let seg = ckt.node(&format!("plm_{name}_{i}"));
            ckt.add_resistor(&format!("RPAR_{name}__s{i}"), prev, seg, cfg.seg_resistance)?;
            ckt.add_capacitor(&format!("CPAR_{name}__s{i}"), seg, GND, per_seg)?;
            prev = seg;
        }
        meshed += 1;
    }
    Ok(meshed)
}

/// Recomputes the parasitic estimate after device geometry changed and
/// writes the new per-segment values into the existing ladder capacitors
/// in place — the per-candidate companion of [`apply_post_layout`] for
/// cloned template circuits (the ladder *structure* is size-independent;
/// only the capacitance shares move).
///
/// Returns the number of nodes refreshed.
///
/// # Errors
///
/// Propagates netlist errors ([`apply_post_layout`] was never run on this
/// circuit).
pub fn update_post_layout(ckt: &mut Circuit, cfg: &PostLayoutConfig) -> Result<usize, SpiceError> {
    let cap = node_caps(ckt, &cfg.parasitics);
    let mut refreshed = 0;
    for (node, c) in cap.iter().enumerate().skip(1) {
        if *c <= 0.0 {
            continue;
        }
        let name = ckt.node_name(node).to_string();
        let per_seg = *c / cfg.segments as f64;
        for i in 0..cfg.segments {
            ckt.set_capacitance(&format!("CPAR_{name}__s{i}"), per_seg)?;
        }
        refreshed += 1;
    }
    Ok(refreshed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::tech_advanced;
    use spice::SimOptions;

    #[test]
    fn grid_has_exactly_n_unknowns() {
        for n in [2usize, 17, 200, 500] {
            let ckt = build_rc_grid(n);
            assert_eq!(ckt.num_unknowns(), n, "n = {n}");
        }
    }

    #[test]
    fn grid_is_deterministic() {
        let a = build_rc_grid(120);
        let b = build_rc_grid(120);
        assert_eq!(a.topology_id(), b.topology_id());
        let ra: Vec<_> = a.capacitive_elements();
        let rb: Vec<_> = b.capacitive_elements();
        assert_eq!(ra, rb);
    }

    #[test]
    fn grid_dc_solves_with_a_real_current_distribution() {
        let ckt = build_rc_grid(150);
        let op = spice::op(&ckt, &SimOptions::default()).unwrap();
        let first = ckt.find_node("g0").unwrap();
        let last = ckt.find_node("g148").unwrap();
        assert!((op.voltage(first) - 1.0).abs() < 1e-9);
        // Current flows corner to corner: the far node sits below the
        // driver but above ground.
        let v = op.voltage(last);
        assert!(v > 0.01 && v < 0.999, "far-corner voltage {v}");
    }

    #[test]
    fn post_layout_ladders_scale_unknowns_and_update_in_place() {
        let t = tech_advanced();
        let cfg = PostLayoutConfig {
            segments: 4,
            ..Default::default()
        };
        let build = |w: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let out = c.node("out");
            c.add_vsource("VDD", vdd, GND, Waveform::Dc(t.vdd)).unwrap();
            c.add_mosfet("M1", out, out, GND, GND, &t.nmos, w, 0.02e-6, 1.0)
                .unwrap();
            c.add_resistor("RL", vdd, out, 10e3).unwrap();
            c
        };
        let mut ckt = build(1e-6);
        let base_unknowns = ckt.num_unknowns();
        let meshed = apply_post_layout(&mut ckt, &cfg).unwrap();
        assert!(meshed >= 2);
        assert_eq!(ckt.num_unknowns(), base_unknowns + meshed * cfg.segments);
        // Updating after a resize must match a fresh application at the
        // new size, element for element.
        let mut fresh = build(5e-6);
        apply_post_layout(&mut fresh, &cfg).unwrap();
        ckt.set_mosfet_geometry("M1", 5e-6, 0.02e-6, 1.0).unwrap();
        let refreshed = update_post_layout(&mut ckt, &cfg).unwrap();
        assert_eq!(refreshed, meshed);
        assert_eq!(fresh.capacitive_elements(), ckt.capacitive_elements());
        // And the meshed circuit still solves.
        let op = spice::op(&ckt, &SimOptions::default()).unwrap();
        assert!(op.voltage(ckt.find_node("out").unwrap()) > 0.0);
    }
}
