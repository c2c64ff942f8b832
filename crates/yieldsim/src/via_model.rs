//! Via-failure statistics: single versus redundant vias.
//!
//! Via opens are a dominant random-defect mechanism; doubling a via cuts
//! the connection's failure probability from `p` to roughly `p²`. This
//! module classifies the vias of a layout into redundancy groups and
//! evaluates the resulting connection yield — the quantitative core of
//! experiment E2 ("redundant vias: hit or hype?").

use dfm_geom::{group_within, Rect, Region};

/// Redundancy census of a via layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViaStats {
    /// Connections served by a single via cut.
    pub single: usize,
    /// Connections served by two or more cuts.
    pub redundant: usize,
}

impl ViaStats {
    /// Total connections.
    pub fn connections(&self) -> usize {
        self.single + self.redundant
    }

    /// Fraction of connections with redundancy.
    pub fn redundancy_rate(&self) -> f64 {
        if self.connections() == 0 {
            return 0.0;
        }
        self.redundant as f64 / self.connections() as f64
    }
}

/// Groups via cuts into connections: cuts whose rectangles lie within
/// `pair_distance` of each other (edge-to-edge, Chebyshev) are assumed to
/// serve the same connection redundantly.
pub fn classify(vias: &Region, pair_distance: i64) -> ViaStats {
    let rects: Vec<(Rect, usize)> = vias.rects().iter().copied().zip(0..).collect();
    let group = group_within(rects.len(), &rects, pair_distance);
    let mut sizes = vec![0usize; rects.len()];
    for &g in &group {
        sizes[g] += 1;
    }
    // Only a group's first item counts its members.
    let mut stats = ViaStats::default();
    for size in sizes {
        match size {
            0 => {}
            1 => stats.single += 1,
            _ => stats.redundant += 1,
        }
    }
    stats
}

/// Connection yield given per-cut failure probability `p_fail`: single
/// cuts fail with `p`, redundant groups with `p²` (independent cuts).
pub fn via_yield(stats: ViaStats, p_fail: f64) -> f64 {
    let single = (1.0 - p_fail).powi(stats.single as i32);
    let redundant = (1.0 - p_fail * p_fail).powi(stats.redundant as i32);
    single * redundant
}

/// Expected failing connections, the `λ` of the via yield Poisson.
pub fn expected_failures(stats: ViaStats, p_fail: f64) -> f64 {
    stats.single as f64 * p_fail + stats.redundant as f64 * p_fail * p_fail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn via(cx: i64, cy: i64) -> Rect {
        Rect::new(cx - 45, cy - 45, cx + 45, cy + 45)
    }

    #[test]
    fn classify_singles_and_pairs() {
        let vias = Region::from_rects([
            via(0, 0),
            via(5000, 0),
            // A redundant pair: 60 apart edge-to-edge.
            via(10_000, 0),
            via(10_150, 0),
        ]);
        let stats = classify(&vias, 100);
        assert_eq!(stats.single, 2);
        assert_eq!(stats.redundant, 1);
        assert_eq!(stats.connections(), 3);
        assert!((stats.redundancy_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pair_distance_controls_grouping() {
        let vias = Region::from_rects([via(0, 0), via(300, 0)]); // 210 gap
        assert_eq!(classify(&vias, 100).single, 2);
        assert_eq!(classify(&vias, 250).redundant, 1);
    }

    #[test]
    fn redundancy_boosts_yield() {
        let p = 1e-3;
        let all_single = ViaStats {
            single: 1000,
            redundant: 0,
        };
        let all_double = ViaStats {
            single: 0,
            redundant: 1000,
        };
        let ys = via_yield(all_single, p);
        let yd = via_yield(all_double, p);
        assert!(yd > ys);
        // Doubling turns ~63% loss into ~0.1% loss at p=1e-3, n=1000.
        assert!(ys < 0.40);
        assert!(yd > 0.99);
    }

    #[test]
    fn expected_failures_linearity() {
        let stats = ViaStats {
            single: 100,
            redundant: 50,
        };
        let p = 1e-2;
        let lambda = expected_failures(stats, p);
        assert!((lambda - (1.0 + 50.0 * 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn empty_region() {
        let stats = classify(&Region::new(), 100);
        assert_eq!(stats.connections(), 0);
        assert_eq!(via_yield(stats, 0.5), 1.0);
    }

    #[test]
    fn zero_connections_redundancy_rate_is_zero_not_nan() {
        // Regression: redundant / connections() on a via-free layout is
        // 0/0 = NaN without the guard, and NaN poisons any aggregate it
        // is folded into (e.g. the manufacturability score, where the
        // weighted mean of anything with NaN is NaN).
        let stats = classify(&Region::new(), 100);
        let rate = stats.redundancy_rate();
        assert!(
            rate.is_finite(),
            "redundancy rate must be finite, got {rate}"
        );
        assert_eq!(rate, 0.0);
        let manual = ViaStats {
            single: 0,
            redundant: 0,
        };
        assert_eq!(manual.redundancy_rate(), 0.0);
        // The neutral value must stay out of the way of an average.
        assert_eq!((rate + 1.0) / 2.0, 0.5);
    }
}
