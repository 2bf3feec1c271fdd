//! The 6T SRAM cell and its read/hold voltage-transfer curves.
//!
//! ```text
//!        BL            VDD   VDD            BLB
//!         |             |     |              |
//!         |   PL ─┤(g=QB)     (g=Q)├─ PR     |
//!  WL ─[AL]── Q ──┬─────┐     ┌──────── QB ──[AR]─ WL
//!                 │ NL ─┤(g=QB)     (g=Q)├─ NR
//!                 |     |     |       |
//!                GND   GND   GND     GND
//! ```
//!
//! During a read, the word line and both bit lines sit at `V_DD`, so the
//! node storing 0 is pulled upward through its access transistor — the
//! disturbance that makes read the critical stability condition.
//!
//! The cell's voltage-transfer curves are solved with a guarded 1-D
//! bisection: with one storage node forced, the net current into the other
//! node is **strictly decreasing** in its voltage (every attached device
//! is passive in that sense), so the solve is unconditionally convergent —
//! no Newton heuristics in the innermost Monte Carlo loop. The general
//! MNA solver in [`crate::solver`] is used in tests to cross-check these
//! fast solves.

use crate::model::Mosfet;
use crate::ptm::{paper_geometry, DeviceRole, VDD_NOMINAL};
use serde::{Deserialize, Serialize};

/// Reference temperature of the technology cards \[K\].
pub const T_NOMINAL_K: f64 = 300.0;

/// First-order threshold temperature coefficient \[V/K\]: both
/// polarities lose about 1 mV of threshold magnitude per kelvin of
/// heating (the textbook figure for scaled CMOS).
pub const VTH_TEMPCO: f64 = 1.0e-3;

/// Identifies one of the six cell transistors.
///
/// The `usize` value of each variant is the canonical position of that
/// device in every ΔVth vector used throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellDevice {
    /// Left pull-up PMOS (gate = QB). Index 0.
    LoadL = 0,
    /// Left pull-down NMOS (gate = QB). Index 1.
    DriverL = 1,
    /// Right pull-up PMOS (gate = Q). Index 2.
    LoadR = 2,
    /// Right pull-down NMOS (gate = Q). Index 3.
    DriverR = 3,
    /// Left access NMOS (gate = WL, BL ↔ Q). Index 4.
    AccessL = 4,
    /// Right access NMOS (gate = WL, BLB ↔ QB). Index 5.
    AccessR = 5,
}

impl CellDevice {
    /// All six devices in canonical index order.
    pub const ALL: [CellDevice; 6] = [
        CellDevice::LoadL,
        CellDevice::DriverL,
        CellDevice::LoadR,
        CellDevice::DriverR,
        CellDevice::AccessL,
        CellDevice::AccessR,
    ];

    /// The device's role (load / driver / access).
    pub fn role(&self) -> DeviceRole {
        match self {
            CellDevice::LoadL | CellDevice::LoadR => DeviceRole::Load,
            CellDevice::DriverL | CellDevice::DriverR => DeviceRole::Driver,
            CellDevice::AccessL | CellDevice::AccessR => DeviceRole::Access,
        }
    }

    /// The mirror-image device under a left↔right cell reflection.
    pub fn mirrored(&self) -> CellDevice {
        match self {
            CellDevice::LoadL => CellDevice::LoadR,
            CellDevice::LoadR => CellDevice::LoadL,
            CellDevice::DriverL => CellDevice::DriverR,
            CellDevice::DriverR => CellDevice::DriverL,
            CellDevice::AccessL => CellDevice::AccessR,
            CellDevice::AccessR => CellDevice::AccessL,
        }
    }
}

impl std::fmt::Display for CellDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CellDevice::LoadL => "PL",
            CellDevice::DriverL => "NL",
            CellDevice::LoadR => "PR",
            CellDevice::DriverR => "NR",
            CellDevice::AccessL => "AL",
            CellDevice::AccessR => "AR",
        };
        write!(f, "{name}")
    }
}

/// Bias condition for transfer-curve extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasCondition {
    /// Word-line voltage \[V\].
    pub wl: f64,
    /// Left bit-line voltage \[V\].
    pub bl: f64,
    /// Right bit-line voltage \[V\].
    pub blb: f64,
}

/// One transfer-curve solve: the root voltage plus the bisection steps
/// it cost — the workspace's "Newton iteration" unit for effort
/// accounting (each bisection step plays the role of one solver
/// iteration of the inner 1-D solve).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VtcSolve {
    /// The solved output voltage \[V\].
    pub v: f64,
    /// Function evaluations spent (bisection steps plus any bracket
    /// validation probes).
    pub iters: u32,
}

/// A 6T SRAM cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Sram6T {
    vdd: f64,
    devices: [Mosfet; 6],
}

impl Sram6T {
    /// Builds the paper's Table I cell at the nominal supply.
    pub fn paper_cell() -> Self {
        Self::paper_cell_at(VDD_NOMINAL)
    }

    /// Builds the paper's Table I cell at a custom supply (Fig. 7 lowers
    /// `V_DD` to 0.5 V so naive Monte Carlo converges).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn paper_cell_at(vdd: f64) -> Self {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "vdd must be positive, got {vdd}"
        );
        let devices = CellDevice::ALL.map(|d| paper_geometry(d.role()).build());
        Self { vdd, devices }
    }

    /// Builds a cell from explicit devices in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn from_devices(vdd: f64, devices: [Mosfet; 6]) -> Self {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "vdd must be positive, got {vdd}"
        );
        Self { vdd, devices }
    }

    /// Supply voltage \[V\].
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The device at a canonical position.
    pub fn device(&self, which: CellDevice) -> &Mosfet {
        &self.devices[which as usize]
    }

    /// Read bias: word line high, both bit lines precharged to `V_DD`.
    pub fn read_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: self.vdd,
            bl: self.vdd,
            blb: self.vdd,
        }
    }

    /// Hold bias: word line low (access devices off).
    pub fn hold_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: 0.0,
            bl: self.vdd,
            blb: self.vdd,
        }
    }

    /// Write bias for writing a "0" into `Q`: word line high, left bit
    /// line driven low, right bit line held at `V_DD`.
    pub fn write0_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: self.vdd,
            bl: 0.0,
            blb: self.vdd,
        }
    }

    /// Returns a copy with per-device threshold shifts applied in
    /// canonical order (see [`CellDevice`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta_vth.len() != 6`.
    pub fn with_delta_vth(&self, delta_vth: &[f64]) -> Self {
        assert_eq!(delta_vth.len(), 6, "expected 6 threshold shifts");
        let mut cell = self.clone();
        for (dev, dv) in cell.devices.iter_mut().zip(delta_vth) {
            *dev = dev.with_delta_vth(*dv);
        }
        cell
    }

    /// Returns a copy operated at a temperature offset from the 300 K
    /// nominal: every device loses [`VTH_TEMPCO`] volts of threshold
    /// magnitude per kelvin of heating and its thermal voltage scales
    /// linearly with absolute temperature. A zero offset reproduces the
    /// nominal cell bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `delta_c` is non-finite or outside \[−150, +200\] K —
    /// beyond that the first-order threshold model drives `vth0`
    /// unphysically.
    pub fn with_temperature_delta(&self, delta_c: f64) -> Self {
        assert!(
            delta_c.is_finite() && (-150.0..=200.0).contains(&delta_c),
            "temperature delta must lie in [-150, 200] K, got {delta_c}"
        );
        let mut cell = self.clone();
        for dev in &mut cell.devices {
            dev.params.vth0 -= VTH_TEMPCO * delta_c;
            dev.params.v_thermal *= (T_NOMINAL_K + delta_c) / T_NOMINAL_K;
        }
        cell
    }

    /// Returns the mirrored cell (left and right halves swapped).
    pub fn mirrored(&self) -> Self {
        let mut cell = self.clone();
        for d in CellDevice::ALL {
            cell.devices[d as usize] = self.devices[d.mirrored() as usize];
        }
        cell
    }

    /// Net current into the node `QB` of the right half-cell when the
    /// opposite node is at `v_gate` and `QB` is at `v_out`.
    fn right_node_current(&self, bias: &BiasCondition, v_gate: f64, v_out: f64) -> f64 {
        let load = self.device(CellDevice::LoadR);
        let driver = self.device(CellDevice::DriverR);
        let access = self.device(CellDevice::AccessR);
        // PMOS load: drain = QB, source = VDD. `current` is the current
        // into the drain; a pull-up sources current into the node, so the
        // node receives its negative.
        let i_load = -load.current(v_gate, v_out, self.vdd, self.vdd);
        // NMOS driver: drain = QB, source = GND. Current into the drain
        // leaves the node.
        let i_driver = driver.current(v_gate, v_out, 0.0, self.vdd);
        // Access NMOS: drain at BLB, source at QB; the device forwards its
        // drain current into the node.
        let i_access = access.current(bias.wl, bias.blb, v_out, self.vdd);
        i_load + i_access - i_driver
    }

    /// Same for the left half-cell (node `Q`, gate driven by `QB`).
    fn left_node_current(&self, bias: &BiasCondition, v_gate: f64, v_out: f64) -> f64 {
        let load = self.device(CellDevice::LoadL);
        let driver = self.device(CellDevice::DriverL);
        let access = self.device(CellDevice::AccessL);
        let i_load = -load.current(v_gate, v_out, self.vdd, self.vdd);
        let i_driver = driver.current(v_gate, v_out, 0.0, self.vdd);
        let i_access = access.current(bias.wl, bias.bl, v_out, self.vdd);
        i_load + i_access - i_driver
    }

    /// Solves the right half-cell transfer curve `V_QB = f_R(V_Q)` at one
    /// input point via guarded bisection.
    pub fn vtc_right(&self, bias: &BiasCondition, v_q: f64) -> f64 {
        self.bisect(|v| self.right_node_current(bias, v_q, v), None)
    }

    /// Solves the left half-cell transfer curve `V_Q = f_L(V_QB)` at one
    /// input point.
    pub fn vtc_left(&self, bias: &BiasCondition, v_qb: f64) -> f64 {
        self.bisect(|v| self.left_node_current(bias, v_qb, v), None)
    }

    /// Like [`Self::vtc_right`], but warm-started: the VTC is monotone
    /// decreasing in its input, so when sweeping the input upward the
    /// previous output is a valid *upper* bracket for the next solve,
    /// shrinking the bisection interval.
    pub fn vtc_right_warm(&self, bias: &BiasCondition, v_q: f64, upper_hint: f64) -> f64 {
        self.bisect(|v| self.right_node_current(bias, v_q, v), Some(upper_hint))
    }

    /// Warm-started variant of [`Self::vtc_left`]; see
    /// [`Self::vtc_right_warm`].
    pub fn vtc_left_warm(&self, bias: &BiasCondition, v_qb: f64, upper_hint: f64) -> f64 {
        self.bisect(|v| self.left_node_current(bias, v_qb, v), Some(upper_hint))
    }

    /// Effort-counting variant of [`Self::vtc_right_warm`] with an
    /// explicit resolution target. With `resolution = 1e-7` the returned
    /// voltage is bit-identical to the legacy warm solve.
    pub fn vtc_right_effort(
        &self,
        bias: &BiasCondition,
        v_q: f64,
        upper_hint: Option<f64>,
        resolution: f64,
    ) -> VtcSolve {
        let (lo, hi) = self.hint_bracket(upper_hint, resolution);
        let (v, iters) = self.bisect_res(
            |v| self.right_node_current(bias, v_q, v),
            lo,
            hi,
            resolution,
        );
        VtcSolve { v, iters }
    }

    /// Effort-counting variant of [`Self::vtc_left_warm`]; see
    /// [`Self::vtc_right_effort`].
    pub fn vtc_left_effort(
        &self,
        bias: &BiasCondition,
        v_qb: f64,
        upper_hint: Option<f64>,
        resolution: f64,
    ) -> VtcSolve {
        let (lo, hi) = self.hint_bracket(upper_hint, resolution);
        let (v, iters) = self.bisect_res(
            |v| self.left_node_current(bias, v_qb, v),
            lo,
            hi,
            resolution,
        );
        VtcSolve { v, iters }
    }

    /// Solves the right transfer curve inside a caller-supplied bracket
    /// (e.g. interpolated from a neighbouring cell's solved curve). The
    /// bracket is clipped to the extended rails and *validated* with two
    /// probe evaluations; `None` means the guess does not bracket the
    /// root and the caller must fall back to a full-width solve.
    pub fn vtc_right_bracketed(
        &self,
        bias: &BiasCondition,
        v_q: f64,
        lo: f64,
        hi: f64,
        resolution: f64,
    ) -> Option<VtcSolve> {
        self.bisect_bracketed(
            |v| self.right_node_current(bias, v_q, v),
            lo,
            hi,
            resolution,
        )
    }

    /// Left-curve variant of [`Self::vtc_right_bracketed`].
    pub fn vtc_left_bracketed(
        &self,
        bias: &BiasCondition,
        v_qb: f64,
        lo: f64,
        hi: f64,
        resolution: f64,
    ) -> Option<VtcSolve> {
        self.bisect_bracketed(
            |v| self.left_node_current(bias, v_qb, v),
            lo,
            hi,
            resolution,
        )
    }

    /// The legacy bracket from an optional monotone upper hint. The
    /// guard band scales with the resolution target (ten steps' worth,
    /// floored at the legacy 1 µV) so coarser solves still produce hints
    /// that safely bound the next root.
    fn hint_bracket(&self, upper_hint: Option<f64>, resolution: f64) -> (f64, f64) {
        let guard = (10.0 * resolution).max(1e-6);
        let hi = match upper_hint {
            Some(h) => (h + guard).min(self.vdd + 0.2),
            None => self.vdd + 0.2,
        };
        (-0.2, hi)
    }

    fn bisect_bracketed(
        &self,
        f: impl Fn(f64) -> f64,
        lo: f64,
        hi: f64,
        resolution: f64,
    ) -> Option<VtcSolve> {
        let lo = lo.max(-0.2);
        let hi = hi.min(self.vdd + 0.2);
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return None;
        }
        // Two probe evaluations confirm the root is inside.
        if f(lo) <= 0.0 || f(hi) >= 0.0 {
            return None;
        }
        let (v, iters) = self.bisect_res(f, lo, hi, resolution);
        Some(VtcSolve {
            v,
            iters: iters + 2,
        })
    }

    /// Bisection on a strictly decreasing current function, to 0.1 µV
    /// resolution (three orders of magnitude below any noise-margin
    /// feature of interest). The bracket extends slightly beyond the rails;
    /// `upper_hint` (if given) must be a known upper bound on the root —
    /// it is widened by a small guard band to absorb rounding.
    fn bisect(&self, f: impl Fn(f64) -> f64, upper_hint: Option<f64>) -> f64 {
        let (lo, hi) = self.hint_bracket(upper_hint, 1e-7);
        self.bisect_res(f, lo, hi, 1e-7).0
    }

    /// Bisection core with an explicit resolution target; returns the
    /// root and the number of function evaluations spent. A fixed
    /// resolution target rather than a fixed iteration count means
    /// warm-started (narrow) brackets converge in fewer steps.
    fn bisect_res(
        &self,
        f: impl Fn(f64) -> f64,
        mut lo: f64,
        mut hi: f64,
        resolution: f64,
    ) -> (f64, u32) {
        debug_assert!(f(lo) > 0.0, "current should be positive at the low rail");
        debug_assert!(
            f(hi) < 0.0,
            "current should be negative above the upper bracket"
        );
        let mut iters = 0u32;
        while hi - lo > resolution {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            iters += 1;
        }
        (0.5 * (lo + hi), iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Element, Netlist};
    use crate::solver::Solver;

    #[test]
    fn canonical_indices_are_stable() {
        assert_eq!(CellDevice::LoadL as usize, 0);
        assert_eq!(CellDevice::DriverL as usize, 1);
        assert_eq!(CellDevice::LoadR as usize, 2);
        assert_eq!(CellDevice::DriverR as usize, 3);
        assert_eq!(CellDevice::AccessL as usize, 4);
        assert_eq!(CellDevice::AccessR as usize, 5);
    }

    #[test]
    fn mirror_is_an_involution() {
        for d in CellDevice::ALL {
            assert_eq!(d.mirrored().mirrored(), d);
        }
    }

    #[test]
    fn read_vtc_endpoints() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        // Input low: output high (driver off, load + access pull up).
        let high = cell.vtc_right(&bias, 0.0);
        assert!(high > cell.vdd() - 0.05, "high level = {high}");
        // Input high: output is the read-disturb level — above ground but
        // well below VDD/2 for a functional cell.
        let low = cell.vtc_right(&bias, cell.vdd());
        assert!(
            low > 0.0 && low < 0.35 * cell.vdd(),
            "read low level = {low}"
        );
    }

    #[test]
    fn hold_vtc_pulls_fully_to_ground() {
        let cell = Sram6T::paper_cell();
        let bias = cell.hold_bias();
        let low = cell.vtc_right(&bias, cell.vdd());
        assert!(low < 0.02, "hold low level = {low}");
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let vin = cell.vdd() * i as f64 / 20.0;
            let v = cell.vtc_right(&bias, vin);
            assert!(v <= prev + 1e-9, "VTC not monotone at vin={vin}");
            prev = v;
        }
    }

    #[test]
    fn symmetric_cell_has_symmetric_vtcs() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        for i in 0..=10 {
            let vin = cell.vdd() * i as f64 / 10.0;
            let r = cell.vtc_right(&bias, vin);
            let l = cell.vtc_left(&bias, vin);
            assert!((r - l).abs() < 1e-9, "asymmetry at vin={vin}: {r} vs {l}");
        }
    }

    #[test]
    fn delta_vth_on_driver_raises_read_low_level() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let base = cell.vtc_right(&bias, cell.vdd());
        let mut shifts = [0.0; 6];
        shifts[CellDevice::DriverR as usize] = 0.1; // weaken right driver
        let weak = cell.with_delta_vth(&shifts);
        let degraded = weak.vtc_right(&bias, cell.vdd());
        assert!(
            degraded > base + 0.01,
            "weakened driver should raise the disturb level: {base} → {degraded}"
        );
    }

    #[test]
    fn mirrored_cell_swaps_vtcs() {
        let cell = Sram6T::paper_cell().with_delta_vth(&[0.02, -0.01, 0.0, 0.03, 0.01, -0.02]);
        let mir = cell.mirrored();
        let bias = cell.read_bias();
        for i in 0..=8 {
            let vin = cell.vdd() * i as f64 / 8.0;
            assert!((cell.vtc_right(&bias, vin) - mir.vtc_left(&bias, vin)).abs() < 1e-9);
        }
    }

    #[test]
    fn bisection_matches_full_newton_solve() {
        // Cross-check the fast 1-D solve against the MNA engine on the
        // same half-cell.
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        for vin in [0.0, 0.2, 0.35, 0.5, 0.7] {
            let fast = cell.vtc_right(&bias, vin);

            let mut nl = Netlist::new(cell.vdd());
            let vdd = nl.add_node();
            let vq = nl.add_node();
            let out = nl.add_node();
            let wl = nl.add_node();
            let blb = nl.add_node();
            nl.add(Element::VSource {
                plus: vdd,
                minus: 0,
                volts: cell.vdd(),
            });
            nl.add(Element::VSource {
                plus: vq,
                minus: 0,
                volts: vin,
            });
            nl.add(Element::VSource {
                plus: wl,
                minus: 0,
                volts: bias.wl,
            });
            nl.add(Element::VSource {
                plus: blb,
                minus: 0,
                volts: bias.blb,
            });
            nl.add(Element::Mosfet {
                d: out,
                g: vq,
                s: vdd,
                device: *cell.device(CellDevice::LoadR),
            });
            nl.add(Element::Mosfet {
                d: out,
                g: vq,
                s: 0,
                device: *cell.device(CellDevice::DriverR),
            });
            nl.add(Element::Mosfet {
                d: blb,
                g: wl,
                s: out,
                device: *cell.device(CellDevice::AccessR),
            });
            let mut init = vec![0.0; nl.node_count()];
            init[vdd] = cell.vdd();
            init[vq] = vin;
            init[wl] = bias.wl;
            init[blb] = bias.blb;
            init[out] = fast; // seed near the solution; uniqueness makes this fair
            let op = Solver::new().solve_dc(&nl, Some(&init)).expect("half-cell");
            assert!(
                (op.node_voltages[out] - fast).abs() < 1e-6,
                "vin={vin}: bisection {fast} vs newton {}",
                op.node_voltages[out]
            );
        }
    }

    #[test]
    fn effort_solve_is_bit_identical_to_legacy_warm_solve() {
        let cell = Sram6T::paper_cell().with_delta_vth(&[0.01, -0.02, 0.0, 0.03, -0.01, 0.02]);
        let bias = cell.read_bias();
        let mut hint = cell.vdd() + 0.2;
        for i in 0..=10 {
            let vin = cell.vdd() * i as f64 / 10.0;
            let legacy = cell.vtc_right_warm(&bias, vin, hint);
            let effort = cell.vtc_right_effort(&bias, vin, Some(hint), 1e-7);
            assert_eq!(legacy, effort.v, "divergence at vin={vin}");
            assert!(effort.iters > 0);
            hint = legacy;
        }
    }

    #[test]
    fn bracketed_solve_converges_faster_inside_a_tight_band() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let vin = 0.3;
        let full = cell.vtc_right_effort(&bias, vin, None, 1e-7);
        let tight = cell
            .vtc_right_bracketed(&bias, vin, full.v - 0.02, full.v + 0.02, 1e-7)
            .expect("true root is inside the band");
        assert!((tight.v - full.v).abs() < 1e-6);
        assert!(
            tight.iters < full.iters,
            "tight bracket {} should beat full sweep {}",
            tight.iters,
            full.iters
        );
    }

    #[test]
    fn bracketed_solve_rejects_a_bad_band() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let root = cell.vtc_right(&bias, 0.3);
        // Band entirely below the root: f > 0 at both ends.
        assert!(cell
            .vtc_right_bracketed(&bias, 0.3, root - 0.1, root - 0.05, 1e-7)
            .is_none());
        // Degenerate band.
        assert!(cell
            .vtc_right_bracketed(&bias, 0.3, 0.5, 0.4, 1e-7)
            .is_none());
        // Left-curve variant agrees on validity checking.
        assert!(cell
            .vtc_left_bracketed(&bias, 0.3, root - 0.05, root + 0.05, 1e-7)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn rejects_bad_vdd() {
        let _ = Sram6T::paper_cell_at(0.0);
    }

    #[test]
    #[should_panic(expected = "expected 6 threshold shifts")]
    fn rejects_wrong_shift_count() {
        let _ = Sram6T::paper_cell().with_delta_vth(&[0.0; 5]);
    }
}
