//! Printed-image metrology: CD cutlines and edge-placement error.

use dfm_geom::{Coord, Interval, Point, Region};

/// Printed-to-drawn area ratio, the print-fidelity metric for the
/// manufacturability score (`litho.area_ratio`): 1.0 is a faithful
/// print, under-printing (necking, dropped features) falls below 1,
/// blooming rises above. An empty drawn layer ratios to 1.0 — there
/// was nothing to print and nothing was printed wrongly.
pub fn print_area_ratio(printed_nm2: f64, drawn_nm2: f64) -> f64 {
    if drawn_nm2 <= 0.0 {
        return 1.0;
    }
    printed_nm2 / drawn_nm2
}

/// The covered x-intervals of `region` along the horizontal line `y`
/// (merged and sorted).
pub fn x_intervals_at(region: &Region, y: Coord) -> Vec<Interval> {
    let mut ivs: Vec<Interval> = region
        .rects()
        .iter()
        .filter(|r| r.y0 <= y && y < r.y1)
        .map(|r| Interval::new(r.x0, r.x1))
        .collect();
    ivs.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.lo <= last.hi => last.hi = last.hi.max(iv.hi),
            _ => out.push(iv),
        }
    }
    out
}

/// The covered y-intervals of `region` along the vertical line `x`.
pub fn y_intervals_at(region: &Region, x: Coord) -> Vec<Interval> {
    let mut ivs: Vec<Interval> = region
        .rects()
        .iter()
        .filter(|r| r.x0 <= x && x < r.x1)
        .map(|r| Interval::new(r.y0, r.y1))
        .collect();
    ivs.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for iv in ivs {
        match out.last_mut() {
            Some(last) if iv.lo <= last.hi => last.hi = last.hi.max(iv.hi),
            _ => out.push(iv),
        }
    }
    out
}

/// Measures the feature width along a **horizontal** cutline through `p`:
/// the length of the covered x-interval containing `p`. `None` when `p`
/// is not covered.
pub fn cd_horizontal(region: &Region, p: Point) -> Option<Coord> {
    x_intervals_at(region, p.y)
        .into_iter()
        .find(|iv| iv.contains(p.x))
        .map(|iv| iv.len())
}

/// Measures the feature width along a **vertical** cutline through `p`.
pub fn cd_vertical(region: &Region, p: Point) -> Option<Coord> {
    y_intervals_at(region, p.x)
        .into_iter()
        .find(|iv| iv.contains(p.y))
        .map(|iv| iv.len())
}

/// One edge-placement-error sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpeSample {
    /// Sample location on the drawn edge.
    pub at: Point,
    /// Signed EPE along the outward normal: positive = printed beyond
    /// drawn (overprint), negative = pullback. `None` when the printed
    /// image is entirely missing at the probe.
    pub epe: Option<Coord>,
}

/// Samples edge-placement error over every boundary edge of `drawn`,
/// one probe per `spacing` of edge length (at least one per edge, at the
/// midpoint), probing `probe_depth` inside the drawn edge.
pub fn edge_placement_errors(
    drawn: &Region,
    printed: &Region,
    spacing: Coord,
    probe_depth: Coord,
) -> Vec<EpeSample> {
    let mut out = Vec::new();
    let edges = drawn.boundary_edges();
    for e in &edges.vertical {
        let n = ((e.len() + spacing - 1) / spacing).max(1);
        for k in 0..n {
            let y = e.y0 + (2 * k + 1) * e.len() / (2 * n);
            let inward = if e.interior_right {
                probe_depth
            } else {
                -probe_depth
            };
            let probe_x = e.x + inward;
            let ivs = x_intervals_at(printed, y);
            let epe = ivs.iter().find(|iv| iv.contains(probe_x)).map(|iv| {
                let printed_edge = if e.interior_right { iv.lo } else { iv.hi };
                // Outward normal points away from interior.
                if e.interior_right {
                    e.x - printed_edge
                } else {
                    printed_edge - e.x
                }
            });
            out.push(EpeSample {
                at: Point::new(e.x, y),
                epe,
            });
        }
    }
    for e in &edges.horizontal {
        let n = ((e.len() + spacing - 1) / spacing).max(1);
        for k in 0..n {
            let x = e.x0 + (2 * k + 1) * e.len() / (2 * n);
            let inward = if e.interior_up {
                probe_depth
            } else {
                -probe_depth
            };
            let probe_y = e.y + inward;
            let ivs = y_intervals_at(printed, x);
            let epe = ivs.iter().find(|iv| iv.contains(probe_y)).map(|iv| {
                let printed_edge = if e.interior_up { iv.lo } else { iv.hi };
                if e.interior_up {
                    e.y - printed_edge
                } else {
                    printed_edge - e.y
                }
            });
            out.push(EpeSample {
                at: Point::new(x, e.y),
                epe,
            });
        }
    }
    out
}

/// Summary statistics over EPE samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpeSummary {
    /// Number of samples.
    pub samples: usize,
    /// Samples where the printed image was missing entirely.
    pub missing: usize,
    /// Root-mean-square EPE over present samples, in nm.
    pub rms: f64,
    /// Maximum |EPE| over present samples, in nm.
    pub max_abs: Coord,
    /// Mean signed EPE (bias), in nm.
    pub mean: f64,
}

/// Aggregates EPE samples into summary statistics.
pub fn summarize_epe(samples: &[EpeSample]) -> EpeSummary {
    let mut s = EpeSummary {
        samples: samples.len(),
        ..Default::default()
    };
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    let mut n = 0usize;
    for sample in samples {
        match sample.epe {
            None => s.missing += 1,
            Some(e) => {
                sum += e as f64;
                sum2 += (e as f64) * (e as f64);
                s.max_abs = s.max_abs.max(e.abs());
                n += 1;
            }
        }
    }
    if n > 0 {
        s.mean = sum / n as f64;
        s.rms = (sum2 / n as f64).sqrt();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Rect;

    #[test]
    fn cd_measurements() {
        let region = Region::from_rects([Rect::new(0, 0, 100, 50), Rect::new(200, 0, 260, 50)]);
        assert_eq!(cd_horizontal(&region, Point::new(50, 25)), Some(100));
        assert_eq!(cd_horizontal(&region, Point::new(220, 25)), Some(60));
        assert_eq!(cd_horizontal(&region, Point::new(150, 25)), None);
        assert_eq!(cd_vertical(&region, Point::new(50, 25)), Some(50));
    }

    #[test]
    fn x_intervals_merge_split_rects() {
        // Region normalisation may split one bar into several rects; the
        // cut must still see one interval.
        let region = Region::from_rects([Rect::new(0, 0, 100, 100), Rect::new(100, 0, 200, 50)]);
        let ivs = x_intervals_at(&region, 25);
        assert_eq!(ivs.len(), 1);
        assert_eq!((ivs[0].lo, ivs[0].hi), (0, 200));
    }

    #[test]
    fn epe_zero_for_identical_regions() {
        let drawn = Region::from_rect(Rect::new(0, 0, 400, 100));
        let samples = edge_placement_errors(&drawn, &drawn, 100, 5);
        assert!(!samples.is_empty());
        for s in &samples {
            assert_eq!(s.epe, Some(0), "at {:?}", s.at);
        }
        let summary = summarize_epe(&samples);
        assert_eq!(summary.rms, 0.0);
        assert_eq!(summary.missing, 0);
    }

    #[test]
    fn epe_sign_convention() {
        let drawn = Region::from_rect(Rect::new(0, 0, 400, 100));
        // Printed uniformly 10 bigger on all sides: positive EPE.
        let over = Region::from_rect(Rect::new(-10, -10, 410, 110));
        let samples = edge_placement_errors(&drawn, &over, 1000, 5);
        for s in &samples {
            assert_eq!(s.epe, Some(10), "at {:?}", s.at);
        }
        // Printed shrunk by 10: negative EPE.
        let under = Region::from_rect(Rect::new(10, 10, 390, 90));
        let samples = edge_placement_errors(&drawn, &under, 1000, 20);
        for s in &samples {
            assert_eq!(s.epe, Some(-10), "at {:?}", s.at);
        }
    }

    #[test]
    fn epe_missing_for_unprinted() {
        let drawn = Region::from_rect(Rect::new(0, 0, 400, 100));
        let samples = edge_placement_errors(&drawn, &Region::new(), 1000, 5);
        let summary = summarize_epe(&samples);
        assert_eq!(summary.missing, summary.samples);
    }

    #[test]
    fn summary_statistics() {
        let samples = vec![
            EpeSample {
                at: Point::new(0, 0),
                epe: Some(3),
            },
            EpeSample {
                at: Point::new(1, 0),
                epe: Some(-4),
            },
            EpeSample {
                at: Point::new(2, 0),
                epe: None,
            },
        ];
        let s = summarize_epe(&samples);
        assert_eq!(s.samples, 3);
        assert_eq!(s.missing, 1);
        assert_eq!(s.max_abs, 4);
        assert!((s.mean - (-0.5)).abs() < 1e-12);
        assert!((s.rms - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
