//! Level-1 (Shichman–Hodges) MOSFET model with channel-length modulation.
//!
//! The model is evaluated symmetrically: when `Vds < 0` the source and
//! drain roles swap, and p-channel devices are handled by mirroring all
//! terminal voltages through zero. The linearization returned by
//! [`Mosfet::linearize`] is expressed directly in the original terminal
//! frame, so the engine can stamp it without caring about polarity or
//! terminal order.

use super::NodeRef;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// n-channel: conducts for `Vgs > Vt`.
    N,
    /// p-channel: conducts for `Vgs < Vt` (with `Vt < 0`).
    P,
}

/// Level-1 model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Zero-bias threshold voltage (V). Negative for depletion n-devices
    /// and for p-devices.
    pub vt0: f64,
    /// Transconductance parameter `µ·Cox` (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Device polarity.
    pub polarity: Polarity,
}

impl MosParams {
    /// n-channel enhancement defaults for a 4 µm-class process at 5 V.
    pub fn nmos_default() -> MosParams {
        MosParams {
            vt0: 1.0,
            kp: 25e-6,
            lambda: 0.02,
            polarity: Polarity::N,
        }
    }

    /// p-channel enhancement defaults (hole mobility ≈ 0.4× electron).
    pub fn pmos_default() -> MosParams {
        MosParams {
            vt0: -1.0,
            kp: 10e-6,
            lambda: 0.02,
            polarity: Polarity::P,
        }
    }

    /// n-channel depletion defaults (the nMOS load device).
    pub fn depletion_default() -> MosParams {
        MosParams {
            vt0: -3.0,
            kp: 25e-6,
            lambda: 0.02,
            polarity: Polarity::N,
        }
    }
}

/// The device's contribution to the linearized system, in the original
/// `(d, g, s)` frame: `i_ds ≈ g_d·Vd + g_g·Vg + g_s·Vs + i_eq`, where
/// `i_ds` is the current flowing from drain to source through the channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosStamp {
    /// ∂i/∂Vd.
    pub g_d: f64,
    /// ∂i/∂Vg.
    pub g_g: f64,
    /// ∂i/∂Vs.
    pub g_s: f64,
    /// Current offset at the linearization point.
    pub i_eq: f64,
}

/// A level-1 MOSFET instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Drain terminal.
    pub d: NodeRef,
    /// Gate terminal.
    pub g: NodeRef,
    /// Source terminal.
    pub s: NodeRef,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Model parameters.
    pub params: MosParams,
}

impl Mosfet {
    /// Creates a MOSFET.
    ///
    /// # Panics
    /// Panics if `w` or `l` is not strictly positive and finite.
    pub fn new(d: NodeRef, g: NodeRef, s: NodeRef, w: f64, l: f64, params: MosParams) -> Mosfet {
        assert!(w > 0.0 && w.is_finite(), "width must be positive, got {w}");
        assert!(l > 0.0 && l.is_finite(), "length must be positive, got {l}");
        Mosfet {
            d,
            g,
            s,
            w,
            l,
            params,
        }
    }

    /// `β = kp · W / L`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.params.kp * self.w / self.l
    }

    /// Drain current and derivatives for an *n-type* device with
    /// `vds >= 0`. Returns `(id, gm, gds)`.
    #[inline(always)]
    fn eval_n(&self, vgs: f64, vds: f64, vt: f64) -> (f64, f64, f64) {
        debug_assert!(vds >= 0.0);
        let beta = self.beta();
        let vov = vgs - vt;
        if vov <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let lam = self.params.lambda;
        let clm = 1.0 + lam * vds;
        if vds < vov {
            // Linear (triode) region.
            let core = vov * vds - 0.5 * vds * vds;
            let id = beta * core * clm;
            let gm = beta * vds * clm;
            let gds = beta * (vov - vds) * clm + beta * core * lam;
            (id, gm, gds)
        } else {
            // Saturation.
            let core = 0.5 * vov * vov;
            let id = beta * core * clm;
            let gm = beta * vov * clm;
            let gds = beta * core * lam;
            (id, gm, gds)
        }
    }

    /// Channel current `i(d→s)` at the given terminal voltages.
    pub fn current(&self, vd: f64, vg: f64, vs: f64) -> f64 {
        self.linearize(vd, vg, vs).eval(vd, vg, vs)
    }

    /// Linearizes the device around `(vd, vg, vs)`; see [`MosStamp`].
    #[inline(always)]
    pub fn linearize(&self, vd: f64, vg: f64, vs: f64) -> MosStamp {
        // Mirror p-devices through zero: i_p(v) = -i_n(-v) with |vt|-style
        // parameters; derivatives are unchanged by the double negation.
        let (vd_e, vg_e, vs_e, sign) = match self.params.polarity {
            Polarity::N => (vd, vg, vs, 1.0),
            Polarity::P => (-vd, -vg, -vs, -1.0),
        };
        let vt = match self.params.polarity {
            Polarity::N => self.params.vt0,
            // In the mirrored frame a p-device behaves like an n-device
            // with threshold |vt0|.
            Polarity::P => -self.params.vt0,
        };

        let (g_d, g_g, g_s, i);
        if vd_e >= vs_e {
            let (id, gm, gds) = self.eval_n(vg_e - vs_e, vd_e - vs_e, vt);
            i = id;
            g_d = gds;
            g_g = gm;
            g_s = -(gm + gds);
        } else {
            // Swap source and drain: current in the original frame is the
            // negative of the swapped-frame current.
            let (id, gm, gds) = self.eval_n(vg_e - vd_e, vs_e - vd_e, vt);
            i = -id;
            g_d = gm + gds;
            g_g = -gm;
            g_s = -gds;
        }

        // Undo the polarity mirror. With v_e = -v, i = -i_e:
        // di/dv = -di_e/dv_e * dv_e/dv = di_e/dv_e, so conductances carry
        // over unchanged; only the current offset flips.
        let (g_d, g_g, g_s, i) = (g_d, g_g, g_s, sign * i);
        let i_eq = i - (g_d * vd + g_g * vg + g_s * vs);
        MosStamp {
            g_d,
            g_g,
            g_s,
            i_eq,
        }
    }
}

impl MosStamp {
    /// True when every term is exactly zero (either sign), as in cutoff:
    /// the device then adds nothing to the system. A NaN term is not zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.g_d == 0.0 && self.g_g == 0.0 && self.g_s == 0.0 && self.i_eq == 0.0
    }

    /// Evaluates the linearized current at the given voltages.
    #[inline]
    pub fn eval(&self, vd: f64, vg: f64, vs: f64) -> f64 {
        self.g_d * vd + self.g_g * vg + self.g_s * vs + self.i_eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(
            NodeRef::Node(0),
            NodeRef::Node(1),
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams {
                lambda: 0.0,
                ..MosParams::nmos_default()
            },
        )
    }

    #[test]
    fn cutoff_below_threshold() {
        let m = nmos();
        assert_eq!(m.current(5.0, 0.5, 0.0), 0.0);
        assert_eq!(m.current(5.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn saturation_current_matches_formula() {
        let m = nmos();
        // vgs = 5, vov = 4, vds = 5 > vov ⇒ saturation.
        let beta = 25e-6 * 4.0;
        let expect = 0.5 * beta * 16.0;
        assert!((m.current(5.0, 5.0, 0.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn triode_current_matches_formula() {
        let m = nmos();
        // vgs = 5, vov = 4, vds = 1 < vov ⇒ triode.
        let beta = 25e-6 * 4.0;
        let expect = beta * (4.0 * 1.0 - 0.5);
        assert!((m.current(1.0, 5.0, 0.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn current_is_continuous_at_region_boundary() {
        let m = nmos();
        let below = m.current(3.9999, 5.0, 0.0);
        let above = m.current(4.0001, 5.0, 0.0);
        assert!((below - above).abs() < 1e-7);
    }

    #[test]
    fn symmetric_under_terminal_swap() {
        // i(d,s) with vds < 0 must equal -i(s,d) with the roles swapped.
        let m = nmos();
        let fwd = m.current(2.0, 5.0, 0.0);
        let rev = m.current(0.0, 5.0, 2.0);
        assert!((fwd + rev).abs() < 1e-12);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = Mosfet::new(
            NodeRef::Node(0),
            NodeRef::Node(1),
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams {
                vt0: 1.0,
                kp: 25e-6,
                lambda: 0.0,
                polarity: Polarity::N,
            },
        );
        let p = Mosfet::new(
            NodeRef::Node(0),
            NodeRef::Node(1),
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams {
                vt0: -1.0,
                kp: 25e-6,
                lambda: 0.0,
                polarity: Polarity::P,
            },
        );
        // Mirrored bias: p at (-vd, -vg) carries the negative of n at (vd, vg).
        let i_n = n.current(3.0, 5.0, 0.0);
        let i_p = p.current(-3.0, -5.0, 0.0);
        assert!((i_n + i_p).abs() < 1e-12);
        assert!(i_n > 0.0);
    }

    #[test]
    fn depletion_conducts_at_zero_vgs() {
        let m = Mosfet::new(
            NodeRef::Node(0),
            NodeRef::Node(1),
            NodeRef::Ground,
            2e-6,
            8e-6,
            MosParams {
                lambda: 0.0,
                ..MosParams::depletion_default()
            },
        );
        // vgs = 0 but vt = -3 ⇒ vov = 3 ⇒ conducting.
        assert!(m.current(5.0, 0.0, 0.0) > 0.0);
    }

    #[test]
    fn linearization_is_tangent() {
        // The linear stamp must reproduce the current exactly at the
        // linearization point and be first-order accurate nearby.
        let m = nmos();
        let (vd, vg, vs) = (2.0, 3.5, 0.5);
        let st = m.linearize(vd, vg, vs);
        assert!((st.eval(vd, vg, vs) - m.current(vd, vg, vs)).abs() < 1e-14);
        let eps = 1e-6;
        for (dd, dg, ds) in [(eps, 0.0, 0.0), (0.0, eps, 0.0), (0.0, 0.0, eps)] {
            let exact = m.current(vd + dd, vg + dg, vs + ds);
            let approx = st.eval(vd + dd, vg + dg, vs + ds);
            assert!(
                (exact - approx).abs() < 1e-9,
                "tangency violated for ({dd},{dg},{ds})"
            );
        }
    }

    #[test]
    fn linearization_tangent_in_reverse_mode() {
        let m = nmos();
        // vds < 0 engages the terminal swap.
        let (vd, vg, vs) = (0.5, 4.0, 2.0);
        let st = m.linearize(vd, vg, vs);
        assert!((st.eval(vd, vg, vs) - m.current(vd, vg, vs)).abs() < 1e-12);
        let eps = 1e-6;
        let exact = m.current(vd + eps, vg, vs);
        assert!((exact - st.eval(vd + eps, vg, vs)).abs() < 1e-9);
    }

    #[test]
    fn channel_length_modulation_increases_saturation_current() {
        let flat = nmos();
        let clm = Mosfet::new(
            flat.d,
            flat.g,
            flat.s,
            flat.w,
            flat.l,
            MosParams {
                lambda: 0.05,
                ..MosParams::nmos_default()
            },
        );
        assert!(clm.current(5.0, 5.0, 0.0) > flat.current(5.0, 5.0, 0.0));
        // And gives a positive output conductance in saturation.
        let st = clm.linearize(5.0, 5.0, 0.0);
        assert!(st.g_d > 0.0);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn rejects_bad_geometry() {
        let _ = Mosfet::new(
            NodeRef::Ground,
            NodeRef::Ground,
            NodeRef::Ground,
            0.0,
            1e-6,
            MosParams::nmos_default(),
        );
    }
}
