//! Scalar → color lookup tables.

/// A piecewise-linear colormap over control points in [0, 1].
#[derive(Debug, Clone, PartialEq)]
pub struct Colormap {
    /// (position in [0,1], rgb) control points, ascending.
    stops: Vec<(f64, [f64; 3])>,
}

impl Colormap {
    /// The perceptually-uniform default used by ParaView/matplotlib.
    pub fn viridis() -> Self {
        Self {
            stops: vec![
                (0.00, [0.267, 0.005, 0.329]),
                (0.25, [0.229, 0.322, 0.546]),
                (0.50, [0.128, 0.567, 0.551]),
                (0.75, [0.369, 0.789, 0.383]),
                (1.00, [0.993, 0.906, 0.144]),
            ],
        }
    }

    /// The diverging cool-warm map (classic CFD pressure rendering).
    pub fn cool_warm() -> Self {
        Self {
            stops: vec![
                (0.0, [0.230, 0.299, 0.754]),
                (0.5, [0.865, 0.865, 0.865]),
                (1.0, [0.706, 0.016, 0.150]),
            ],
        }
    }

    /// Grayscale.
    pub fn grayscale() -> Self {
        Self {
            stops: vec![(0.0, [0.0; 3]), (1.0, [1.0; 3])],
        }
    }

    /// By name ("viridis", "cool-warm", "grayscale"); unknown → viridis.
    pub fn by_name(name: &str) -> Self {
        match name {
            "cool-warm" | "coolwarm" => Self::cool_warm(),
            "grayscale" | "gray" => Self::grayscale(),
            _ => Self::viridis(),
        }
    }

    /// The control points, for fingerprinting a colormap into a cache key.
    pub fn stops(&self) -> &[(f64, [f64; 3])] {
        &self.stops
    }

    /// Map `value` within `[lo, hi]` to 8-bit RGB (clamped; NaN → black).
    pub fn map(&self, value: f64, lo: f64, hi: f64) -> [u8; 3] {
        if value.is_nan() {
            return [0, 0, 0];
        }
        let t = if hi > lo {
            ((value - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            0.5
        };
        let rgb = self.sample(t);
        [
            round_to_u8(rgb[0] * 255.0),
            round_to_u8(rgb[1] * 255.0),
            round_to_u8(rgb[2] * 255.0),
        ]
    }

    fn sample(&self, t: f64) -> [f64; 3] {
        let stops = &self.stops;
        if t <= stops[0].0 {
            return stops[0].1;
        }
        for w in stops.windows(2) {
            let (t0, c0) = w[0];
            let (t1, c1) = w[1];
            if t <= t1 {
                let f = (t - t0) / (t1 - t0);
                return [
                    c0[0] + f * (c1[0] - c0[0]),
                    c0[1] + f * (c1[1] - c0[1]),
                    c0[2] + f * (c1[2] - c0[2]),
                ];
            }
        }
        stops[stops.len() - 1].1
    }
}

/// `v.round() as u8`, bit for bit, without the call into libm that
/// `round` is on baseline x86-64 (three per shaded pixel): the saturating
/// cast truncates, the remainder it leaves is exact, and half rounds away
/// from zero.
#[inline]
fn round_to_u8(v: f64) -> u8 {
    let floor = v as u8;
    let frac = v - f64::from(floor);
    floor + u8::from(frac >= 0.5 && floor < u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_stops() {
        let cm = Colormap::viridis();
        assert_eq!(cm.map(0.0, 0.0, 1.0), [68, 1, 84]);
        assert_eq!(cm.map(1.0, 0.0, 1.0), [253, 231, 37]);
    }

    #[test]
    fn values_clamp_outside_range() {
        let cm = Colormap::grayscale();
        assert_eq!(cm.map(-10.0, 0.0, 1.0), [0, 0, 0]);
        assert_eq!(cm.map(10.0, 0.0, 1.0), [255, 255, 255]);
    }

    #[test]
    fn midpoint_interpolates() {
        let cm = Colormap::grayscale();
        let [r, g, b] = cm.map(0.5, 0.0, 1.0);
        assert_eq!(r, g);
        assert_eq!(g, b);
        assert!((r as i32 - 128).abs() <= 1);
    }

    #[test]
    fn degenerate_range_and_nan_are_safe() {
        let cm = Colormap::cool_warm();
        // lo == hi → midpoint color.
        assert_eq!(cm.map(5.0, 5.0, 5.0), cm.map(0.5, 0.0, 1.0));
        assert_eq!(cm.map(f64::NAN, 0.0, 1.0), [0, 0, 0]);
    }

    #[test]
    fn round_to_u8_is_round_then_cast() {
        let same = |v: f64| assert_eq!(round_to_u8(v), v.round() as u8, "{v:e}");
        // Around every integer and every half in and just past the range,
        // a few representable values to either side.
        for half_steps in -4..=516 {
            let centre = f64::from(half_steps) * 0.5;
            for ulps in -3i64..=3 {
                same(f64::from_bits((centre.to_bits() as i64 + ulps) as u64));
                same(-f64::from_bits((centre.to_bits() as i64 + ulps) as u64));
            }
        }
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            0.49999999999999994,
            1e300,
            -1e300,
        ] {
            same(v);
        }
        // Every value the shipped colormaps can produce on a fine grid.
        for cm in ["viridis", "cool-warm", "grayscale"].map(Colormap::by_name) {
            for i in 0..=100_000 {
                for c in cm.sample(f64::from(i) / 100_000.0) {
                    same(c * 255.0);
                }
            }
        }
    }

    #[test]
    fn by_name_selects() {
        assert_eq!(Colormap::by_name("cool-warm"), Colormap::cool_warm());
        assert_eq!(Colormap::by_name("gray"), Colormap::grayscale());
        assert_eq!(Colormap::by_name("whatever"), Colormap::viridis());
    }
}
