//! Strongly-typed physical quantities.
//!
//! Every physical model in this workspace passes quantities around as
//! newtypes over `f64` ([`Seconds`], [`Ohms`], [`Farads`], ...) instead of
//! bare floats. This statically rules out the classic modelling bugs —
//! adding a resistance to a capacitance, or feeding picoseconds where the
//! model expects seconds — while compiling down to plain `f64` arithmetic.
//!
//! All values are stored in base SI units. Convenience constructors and
//! accessors are provided for the magnitudes that actually occur in on-chip
//! interconnect modelling (ps/ns, µm/mm, fF/pF, pJ, mW).
//!
//! Physically meaningful products are implemented as operator overloads:
//! `Ohms * Farads = Seconds` (RC time constant), `Watts * Seconds = Joules`,
//! `Amperes * Volts = Watts`, and so on. Dimensionless scaling uses
//! `f64 * quantity` / `quantity * f64`.
//!
//! # Examples
//!
//! ```
//! use mot3d_phys::units::{Ohms, Farads, Seconds};
//!
//! let r = Ohms::new(1_000.0);
//! let c = Farads::from_ff(50.0);
//! let tau: Seconds = r * c;
//! assert!((tau.ps() - 50.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for one scalar quantity newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a quantity from a value in base SI units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base SI units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", engineering(self.0), $unit)
            }
        }
    };
}

quantity!(
    /// A time duration in seconds.
    Seconds,
    "s"
);
quantity!(
    /// An electrical resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// An electrical capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// A length in meters.
    Meters,
    "m"
);
quantity!(
    /// An energy in joules.
    Joules,
    "J"
);
quantity!(
    /// A power in watts.
    Watts,
    "W"
);
quantity!(
    /// An electrical potential in volts.
    Volts,
    "V"
);
quantity!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// An area in square meters.
    SquareMeters,
    "m²"
);

impl Seconds {
    /// Creates a duration from picoseconds.
    #[inline]
    pub const fn from_ps(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// The duration in picoseconds.
    #[inline]
    pub fn ps(self) -> f64 {
        self.0 * 1e12
    }

    /// The duration in nanoseconds.
    #[inline]
    pub fn ns(self) -> f64 {
        self.0 * 1e9
    }
}

impl Ohms {
    /// Creates a resistance from kilo-ohms.
    #[inline]
    pub const fn from_kohms(kohms: f64) -> Self {
        Self(kohms * 1e3)
    }
}

impl Farads {
    /// Creates a capacitance from femtofarads.
    #[inline]
    pub const fn from_ff(ff: f64) -> Self {
        Self(ff * 1e-15)
    }

    /// The capacitance in femtofarads.
    #[inline]
    pub fn ff(self) -> f64 {
        self.0 * 1e15
    }

    /// Dynamic switching energy `½ C V²` for a full-swing transition.
    #[inline]
    pub fn switching_energy(self, vdd: Volts) -> Joules {
        Joules(0.5 * self.0 * vdd.0 * vdd.0)
    }
}

impl Meters {
    /// Creates a length from micrometers.
    #[inline]
    pub const fn from_um(um: f64) -> Self {
        Self(um * 1e-6)
    }

    /// Creates a length from millimeters.
    #[inline]
    pub const fn from_mm(mm: f64) -> Self {
        Self(mm * 1e-3)
    }

    /// The length in micrometers.
    #[inline]
    pub fn um(self) -> f64 {
        self.0 * 1e6
    }

    /// The length in millimeters.
    #[inline]
    pub fn mm(self) -> f64 {
        self.0 * 1e3
    }
}

impl Joules {
    /// Creates an energy from picojoules.
    #[inline]
    pub const fn from_pj(pj: f64) -> Self {
        Self(pj * 1e-12)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub const fn from_nj(nj: f64) -> Self {
        Self(nj * 1e-9)
    }

    /// Creates an energy from millijoules.
    #[inline]
    pub const fn from_mj(mj: f64) -> Self {
        Self(mj * 1e-3)
    }

    /// The energy in picojoules.
    #[inline]
    pub fn pj(self) -> f64 {
        self.0 * 1e12
    }

    /// The energy in nanojoules.
    #[inline]
    pub fn nj(self) -> f64 {
        self.0 * 1e9
    }

    /// The energy in millijoules.
    #[inline]
    pub fn mj(self) -> f64 {
        self.0 * 1e3
    }
}

impl Watts {
    /// Creates a power from milliwatts.
    #[inline]
    pub const fn from_mw(mw: f64) -> Self {
        Self(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    #[inline]
    pub const fn from_uw(uw: f64) -> Self {
        Self(uw * 1e-6)
    }

    /// The power in milliwatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 * 1e3
    }
}

impl Hertz {
    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// The frequency in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// The clock period `1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.0 > 0.0, "period of a zero frequency is undefined");
        Seconds(1.0 / self.0)
    }
}

// ---- physically meaningful cross-type products -----------------------------

impl Mul<Farads> for Ohms {
    type Output = Seconds;
    /// RC time constant.
    #[inline]
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

impl Mul<Ohms> for Farads {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy = power × time.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power = energy / time.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Mul<Joules> for Seconds {
    type Output = JouleSeconds;
    /// Energy–delay product.
    #[inline]
    fn mul(self, rhs: Joules) -> JouleSeconds {
        JouleSeconds(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Joules {
    type Output = JouleSeconds;
    #[inline]
    fn mul(self, rhs: Seconds) -> JouleSeconds {
        JouleSeconds(self.0 * rhs.0)
    }
}

impl Mul<Meters> for Meters {
    type Output = SquareMeters;
    #[inline]
    fn mul(self, rhs: Meters) -> SquareMeters {
        SquareMeters(self.0 * rhs.0)
    }
}

quantity!(
    /// An energy-delay product in joule-seconds.
    ///
    /// EDP is the paper's headline power-efficiency metric (lower is
    /// better); see Fig. 7 and Fig. 8.
    JouleSeconds,
    "J·s"
);

/// Resistance per unit length, for wire parasitics (Ω/m).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OhmsPerMeter(pub f64);

/// Capacitance per unit length, for wire parasitics (F/m).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaradsPerMeter(pub f64);

impl OhmsPerMeter {
    /// Total resistance of a wire of the given length.
    #[inline]
    pub fn over(self, length: Meters) -> Ohms {
        Ohms(self.0 * length.value())
    }
}

impl FaradsPerMeter {
    /// Total capacitance of a wire of the given length.
    #[inline]
    pub fn over(self, length: Meters) -> Farads {
        Farads(self.0 * length.value())
    }
}

/// Formats a raw value with an engineering-notation SI prefix.
fn engineering(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs();
    let prefixes: [(f64, &str); 9] = [
        (1e-15, "f"),
        (1e-12, "p"),
        (1e-9, "n"),
        (1e-6, "µ"),
        (1e-3, "m"),
        (1.0, ""),
        (1e3, "k"),
        (1e6, "M"),
        (1e9, "G"),
    ];
    let mut best = (1.0, "");
    for (scale, p) in prefixes {
        if mag >= scale {
            best = (scale, p);
        }
    }
    format!("{:.3}{}", v / best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        let tau = Ohms::from_kohms(2.0) * Farads::from_ff(25.0);
        assert!((tau.ps() - 50.0).abs() < 1e-9);
        let tau2 = Farads::from_ff(25.0) * Ohms::from_kohms(2.0);
        assert_eq!(tau, tau2);
    }

    #[test]
    fn switching_energy_half_cv2() {
        let e = Farads::from_ff(100.0).switching_energy(Volts::new(1.0));
        assert!((e.pj() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn power_time_energy_roundtrip() {
        let p = Watts::from_mw(10.0);
        let t = Seconds::from_us(2.0);
        let e: Joules = p * t;
        assert!((e.nj() - 20.0).abs() < 1e-9);
        let back: Watts = e / t;
        assert!((back.mw() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn edp_units() {
        let edp = Joules::from_pj(10.0) * Seconds::new(5e-9);
        assert!((edp.value() - 50e-21).abs() < 1e-30);
    }

    #[test]
    fn period_of_1ghz_is_1ns() {
        assert!((Hertz::from_ghz(1.0).period().ns() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Hertz::new(0.0).period();
    }

    #[test]
    fn length_conversions() {
        assert!((Meters::from_mm(5.0).um() - 5_000.0).abs() < 1e-9);
        assert!((Meters::from_um(40.0).mm() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn per_length_parasitics() {
        let r = OhmsPerMeter(100e3); // 100 Ω/mm
        let c = FaradsPerMeter(200e-12); // 200 fF/mm
        let wire = Meters::from_mm(2.0);
        assert!((r.over(wire).value() - 200.0).abs() < 1e-9);
        assert!((c.over(wire).ff() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio = Seconds::new(10e-9) / Seconds::new(2e-9);
        assert!((ratio - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_ordering() {
        let total: Seconds = [Seconds::from_ps(10.0), Seconds::from_ps(15.0)]
            .into_iter()
            .sum();
        assert!((total.ps() - 25.0).abs() < 1e-9);
        assert!(Seconds::from_ps(10.0) < Seconds::from_ps(15.0));
        assert_eq!(
            Seconds::from_ps(10.0).max(Seconds::from_ps(15.0)),
            Seconds::from_ps(15.0)
        );
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(format!("{}", Seconds::from_ps(50.0)), "50.000p s");
        assert_eq!(format!("{}", Farads::from_ff(1.5)), "1.500f F");
        assert_eq!(format!("{}", Watts::from_mw(250.0)), "250.000m W");
    }

    #[test]
    fn zero_and_negation() {
        assert_eq!(Seconds::ZERO.value(), 0.0);
        assert_eq!(-Seconds::new(1e-9) + Seconds::new(1e-9), Seconds::ZERO);
    }
}
