//! Monte-Carlo defect injection: an independent check on the analytic
//! critical area (experiment E12).
//!
//! The estimator follows standard practice: estimate the critical-area
//! *curve* `CA(d)` by Monte Carlo at a geometric grid of defect sizes
//! (each size has a finite-variance binomial estimator), then average
//! over the `2x₀²/x³` size distribution in closed form, extrapolating the
//! tail linearly (CA grows asymptotically linearly in defect size). A
//! naive single-pass estimator that samples sizes *and* positions jointly
//! has a log-divergent second moment — rare giant defects carry huge
//! position-window weights — and converges erratically.

use crate::DefectModel;
use dfm_geom::{GridIndex, Point, Rect, Region, Searcher};
use dfm_rand::Rng;

/// Position samples per Monte-Carlo stratum. The stratum partition and
/// each stratum's forked stream depend only on the sample budget and
/// the parent generator — never on the thread count — so estimates are
/// bit-identical at any `DFM_THREADS`.
const MC_STRATUM: usize = 4096;

/// Result of a Monte-Carlo short-critical-area estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McResult {
    /// Estimated average short critical area, nm².
    pub short_ca_nm2: f64,
    /// Standard error of the estimate, nm².
    pub std_err_nm2: f64,
    /// Total defects sampled (across all size strata).
    pub samples: usize,
    /// Defects that caused a short.
    pub kills: usize,
}

struct ComponentIndex {
    index: GridIndex<usize>,
}

impl ComponentIndex {
    fn build(metal: &Region, cell: i64) -> Self {
        let components = metal.connected_components();
        let mut index: GridIndex<usize> = GridIndex::new(cell.max(64));
        for (ci, comp) in components.iter().enumerate() {
            for r in comp.rects() {
                index.insert(*r, ci);
            }
        }
        ComponentIndex { index }
    }

    /// Per-thread query handle (amortised generation-stamp dedup).
    fn searcher(&self) -> Searcher<'_, usize> {
        self.index.searcher()
    }
}

/// True if `square` strictly overlaps at least two distinct components.
fn bridges(searcher: &mut Searcher<'_, usize>, square: Rect) -> bool {
    let mut first: Option<usize> = None;
    for (rect, &ci) in searcher.query_with_rects(square) {
        if !rect.overlaps(&square) {
            continue;
        }
        match first {
            None => first = Some(ci),
            Some(f) if f != ci => return true,
            _ => {}
        }
    }
    false
}

/// Monte-Carlo estimate of the short critical area for one fixed defect
/// diameter `d`: positions uniform over the bounding box expanded by
/// `d/2 + 1`. Returns `(ca_nm2, std_err_nm2, kills)`.
pub fn estimate_ca_at_diameter(
    metal: &Region,
    d: i64,
    samples: usize,
    rng: &mut Rng,
) -> (f64, f64, usize) {
    let bbox = metal.bbox();
    if bbox.is_empty() || samples == 0 || d <= 0 {
        return (0.0, 0.0, 0);
    }
    let components = ComponentIndex::build(metal, d.max(256) * 2);
    let window = bbox.expanded(d / 2 + 1);
    let area = window.area() as f64;
    // Fixed-size strata, streams pre-forked sequentially from the
    // parent generator, kill counts summed in stratum order.
    let n_strata = samples.div_ceil(MC_STRATUM);
    let seeds: Vec<u64> = (0..n_strata).map(|_| rng.next_u64()).collect();
    let kills: usize = dfm_par::par_map(&seeds, |si, &seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let n = MC_STRATUM.min(samples - si * MC_STRATUM);
        let mut searcher = components.searcher();
        let mut kills = 0usize;
        for _ in 0..n {
            let cx = rng.range(window.x0..window.x1);
            let cy = rng.range(window.y0..window.y1);
            let square = Rect::centered_at(Point::new(cx, cy), d, d);
            if bridges(&mut searcher, square) {
                kills += 1;
            }
        }
        kills
    })
    .into_iter()
    .sum();
    let p = kills as f64 / samples as f64;
    let var = p * (1.0 - p) / samples as f64;
    (area * p, area * var.sqrt(), kills)
}

/// Estimates the distribution-averaged short critical area of `metal`,
/// comparable to [`crate::critical_area::analyze`]'s `short_ca_nm2`.
///
/// `samples` is the total position-sample budget, split evenly across a
/// geometric grid of defect sizes from `x₀` to `64·x₀`; the size average
/// is taken in closed form with a linear tail extrapolation.
pub fn estimate_short_ca(
    metal: &Region,
    defects: &DefectModel,
    samples: usize,
    seed: u64,
) -> McResult {
    let bbox = metal.bbox();
    if bbox.is_empty() || samples == 0 {
        return McResult {
            short_ca_nm2: 0.0,
            std_err_nm2: 0.0,
            samples,
            kills: 0,
        };
    }
    let mut rng = Rng::seed_from_u64(seed);

    // Size grid: x0 · 2^(j/2), j = 0..12 (up to 64·x0).
    let x0 = defects.x0 as f64;
    let sizes: Vec<i64> = (0..=12)
        .map(|j| (x0 * 2f64.powf(j as f64 / 2.0)).round() as i64)
        .collect();
    let per_size = (samples / sizes.len()).max(100);

    let mut ca: Vec<f64> = Vec::with_capacity(sizes.len());
    let mut se: Vec<f64> = Vec::with_capacity(sizes.len());
    let mut total_kills = 0usize;
    for &d in &sizes {
        let (c, s, k) = estimate_ca_at_diameter(metal, d, per_size, &mut rng);
        ca.push(c);
        se.push(s);
        total_kills += k;
    }

    let (mean, var) = integrate_size_distribution(&sizes, &ca, &se, x0);
    McResult {
        short_ca_nm2: mean,
        std_err_nm2: var.sqrt(),
        samples: per_size * sizes.len(),
        kills: total_kills,
    }
}

/// Monte-Carlo estimate of the *open* critical area for one fixed defect
/// diameter: a defect kills when it severs a connected component (the
/// local clip minus the defect splits into more pieces than before).
pub fn estimate_open_ca_at_diameter(
    metal: &Region,
    d: i64,
    samples: usize,
    rng: &mut Rng,
) -> (f64, f64, usize) {
    let bbox = metal.bbox();
    if bbox.is_empty() || samples == 0 || d <= 0 {
        return (0.0, 0.0, 0);
    }
    let window = bbox.expanded(d / 2 + 1);
    let area = window.area() as f64;
    let n_strata = samples.div_ceil(MC_STRATUM);
    let seeds: Vec<u64> = (0..n_strata).map(|_| rng.next_u64()).collect();
    let kills: usize = dfm_par::par_map(&seeds, |si, &seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let n = MC_STRATUM.min(samples - si * MC_STRATUM);
        let mut kills = 0usize;
        for _ in 0..n {
            let cx = rng.range(window.x0..window.x1);
            let cy = rng.range(window.y0..window.y1);
            let square = Rect::centered_at(Point::new(cx, cy), d, d);
            let local_window = square.expanded(2 * d);
            let local = metal.clipped(local_window);
            if local.is_empty() {
                continue;
            }
            let before = local.connected_components().len();
            let after_region = local.difference(&Region::from_rect(square));
            let after = after_region.connected_components().len();
            if after > before {
                kills += 1;
            }
        }
        kills
    })
    .into_iter()
    .sum();
    let p = kills as f64 / samples as f64;
    let var = p * (1.0 - p) / samples as f64;
    (area * p, area * var.sqrt(), kills)
}

/// Distribution-averaged *open* critical area, comparable to
/// [`crate::critical_area::analyze`]'s `open_ca_nm2` (same size-grid
/// strategy as [`estimate_short_ca`]).
pub fn estimate_open_ca(
    metal: &Region,
    defects: &DefectModel,
    samples: usize,
    seed: u64,
) -> McResult {
    let bbox = metal.bbox();
    if bbox.is_empty() || samples == 0 {
        return McResult {
            short_ca_nm2: 0.0,
            std_err_nm2: 0.0,
            samples,
            kills: 0,
        };
    }
    let mut rng = Rng::seed_from_u64(seed);
    let x0 = defects.x0 as f64;
    let sizes: Vec<i64> = (0..=12)
        .map(|j| (x0 * 2f64.powf(j as f64 / 2.0)).round() as i64)
        .collect();
    let per_size = (samples / sizes.len()).max(100);
    let mut ca = Vec::with_capacity(sizes.len());
    let mut se = Vec::with_capacity(sizes.len());
    let mut total_kills = 0usize;
    for &d in &sizes {
        let (c, s, k) = estimate_open_ca_at_diameter(metal, d, per_size, &mut rng);
        ca.push(c);
        se.push(s);
        total_kills += k;
    }
    let (mean, var) = integrate_size_distribution(&sizes, &ca, &se, x0);
    McResult {
        short_ca_nm2: mean,
        std_err_nm2: var.sqrt(),
        samples: per_size * sizes.len(),
        kills: total_kills,
    }
}

/// Closed-form integration of a sampled CA(d) curve against the
/// 2x0²/x³ defect-size distribution. Returns `(mean, variance)`.
///
/// The model: each measured size owns the bin between the geometric
/// means to its neighbours (first bin starts at `x0`, last bin ends at
/// `sizes[n-1]·√2`), CA is constant per bin, and beyond the last bound
/// CA extrapolates linearly through the last two samples (clamped so
/// the tail contribution is never negative).
///
/// Degenerate spectra are defined, not panics:
///
/// * `n == 0` — no samples, no mass: `(0.0, 0.0)`.
/// * `n == 1` — a single-size spectrum gets a degenerate single-bin
///   split: the lone sample owns the entire distribution mass (its bin
///   plus a constant tail at `ca[0]`), so the mean is exactly `ca[0]`
///   and the variance `se[0]²`.
/// * equal last two sizes — no slope is measurable; the tail falls
///   back to the same constant extrapolation as `n == 1`.
pub fn integrate_size_distribution(sizes: &[i64], ca: &[f64], se: &[f64], x0: f64) -> (f64, f64) {
    let survival = |x: f64| -> f64 {
        if x <= x0 {
            1.0
        } else {
            (x0 / x) * (x0 / x)
        }
    };
    let n = sizes.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        // Degenerate single-bin split: bin weight + constant tail sum
        // to the whole distribution mass, which is 1.
        return (ca[0], se[0] * se[0]);
    }
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(x0);
    for j in 1..n {
        bounds.push((sizes[j - 1] as f64 * sizes[j] as f64).sqrt());
    }
    let b_last = sizes[n - 1] as f64 * 2f64.sqrt();
    bounds.push(b_last);
    let mut mean = 0.0;
    let mut var = 0.0;
    for j in 0..n {
        let w = survival(bounds[j]) - survival(bounds[j + 1]);
        mean += w * ca[j];
        var += (w * se[j]) * (w * se[j]);
    }
    let (d1, d2) = (sizes[n - 2] as f64, sizes[n - 1] as f64);
    // A repeated top size has no measurable slope: extrapolate flat.
    let c1 = if d2 > d1 {
        (ca[n - 1] - ca[n - 2]) / (d2 - d1)
    } else {
        0.0
    };
    let c0 = ca[n - 1] - c1 * d2;
    let tail = c0 * survival(b_last) + c1 * 2.0 * x0 * x0 / b_last;
    mean += tail.max(0.0);
    var += (survival(b_last) * se[n - 1]) * (survival(b_last) * se[n - 1]);
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_area;

    #[test]
    fn mc_matches_analytic_on_parallel_wires() {
        let metal = Region::from_rects([
            Rect::new(0, 0, 100_000, 200),
            Rect::new(0, 300, 100_000, 500),
        ]);
        let defects = DefectModel::new(50, 1.0);
        let analytic = critical_area::analyze(&metal, &defects).short_ca_nm2;
        let mc = estimate_short_ca(&metal, &defects, 120_000, 7);
        let err = (mc.short_ca_nm2 - analytic).abs();
        assert!(
            err < 4.0 * mc.std_err_nm2 + 0.05 * analytic,
            "MC {} vs analytic {analytic} (stderr {})",
            mc.short_ca_nm2,
            mc.std_err_nm2
        );
    }

    #[test]
    fn fixed_size_curve_is_monotone() {
        let metal = Region::from_rects([
            Rect::new(0, 0, 100_000, 200),
            Rect::new(0, 300, 100_000, 500),
        ]);
        let mut rng = Rng::seed_from_u64(3);
        let (small, _, _) = estimate_ca_at_diameter(&metal, 150, 20_000, &mut rng);
        let (large, _, _) = estimate_ca_at_diameter(&metal, 400, 20_000, &mut rng);
        assert!(large > small, "CA(d) must grow with d: {small} vs {large}");
        // Sub-gap defects never short.
        let (zero, _, k) = estimate_ca_at_diameter(&metal, 90, 5_000, &mut rng);
        assert_eq!(zero, 0.0);
        assert_eq!(k, 0);
    }

    #[test]
    fn open_mc_matches_analytic_on_single_wire() {
        let metal = Region::from_rect(Rect::new(0, 0, 100_000, 200));
        let defects = DefectModel::new(50, 1.0);
        let analytic = critical_area::analyze(&metal, &defects).open_ca_nm2;
        let mc = estimate_open_ca(&metal, &defects, 16_000, 5);
        let err = (mc.short_ca_nm2 - analytic).abs();
        assert!(
            err < 4.0 * mc.std_err_nm2 + 0.10 * analytic,
            "open MC {} vs analytic {analytic} (stderr {})",
            mc.short_ca_nm2,
            mc.std_err_nm2
        );
    }

    #[test]
    fn narrower_wire_has_more_open_ca() {
        let defects = DefectModel::new(50, 1.0);
        let narrow = Region::from_rect(Rect::new(0, 0, 100_000, 100));
        let wide = Region::from_rect(Rect::new(0, 0, 100_000, 400));
        let mc_n = estimate_open_ca(&narrow, &defects, 8_000, 9);
        let mc_w = estimate_open_ca(&wide, &defects, 8_000, 9);
        assert!(mc_n.short_ca_nm2 > mc_w.short_ca_nm2);
    }

    #[test]
    fn single_wire_has_no_short_ca() {
        let metal = Region::from_rect(Rect::new(0, 0, 100_000, 200));
        let defects = DefectModel::new(50, 1.0);
        let mc = estimate_short_ca(&metal, &defects, 5_000, 3);
        assert_eq!(mc.kills, 0);
        assert_eq!(mc.short_ca_nm2, 0.0);
    }

    #[test]
    fn closer_wires_kill_more() {
        let defects = DefectModel::new(50, 1.0);
        let close = Region::from_rects([
            Rect::new(0, 0, 100_000, 200),
            Rect::new(0, 280, 100_000, 480),
        ]);
        let far = Region::from_rects([
            Rect::new(0, 0, 100_000, 200),
            Rect::new(0, 700, 100_000, 900),
        ]);
        let mc_close = estimate_short_ca(&close, &defects, 30_000, 11);
        let mc_far = estimate_short_ca(&far, &defects, 30_000, 11);
        assert!(mc_close.short_ca_nm2 > mc_far.short_ca_nm2);
    }

    #[test]
    fn estimate_identical_across_thread_counts() {
        let metal =
            Region::from_rects([Rect::new(0, 0, 10_000, 100), Rect::new(0, 200, 10_000, 300)]);
        let defects = DefectModel::new(50, 1.0);
        let run = || estimate_short_ca(&metal, &defects, 20_000, 42);
        let seq = dfm_par::with_threads(1, run);
        let two = dfm_par::with_threads(2, run);
        let eight = dfm_par::with_threads(8, run);
        assert_eq!(seq, two);
        assert_eq!(seq, eight);
        let run_open = || estimate_open_ca(&metal, &defects, 6_000, 42);
        let a = dfm_par::with_threads(1, run_open);
        let b = dfm_par::with_threads(8, run_open);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let metal =
            Region::from_rects([Rect::new(0, 0, 10_000, 100), Rect::new(0, 200, 10_000, 300)]);
        let defects = DefectModel::new(50, 1.0);
        let a = estimate_short_ca(&metal, &defects, 10_000, 42);
        let b = estimate_short_ca(&metal, &defects, 10_000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_spectrum_integrates_to_zero() {
        // Regression: n == 0 used to index sizes[n - 1] and panic.
        assert_eq!(integrate_size_distribution(&[], &[], &[], 50.0), (0.0, 0.0));
    }

    #[test]
    fn single_size_spectrum_is_a_degenerate_single_bin() {
        // Regression: n == 1 used to silently drop the tail mass (the
        // linear extrapolation needs two samples). The defined
        // semantics: the lone size owns the whole distribution.
        let (mean, var) = integrate_size_distribution(&[120], &[7.5e5], &[300.0], 50.0);
        assert_eq!(mean, 7.5e5);
        assert_eq!(var, 300.0 * 300.0);
        assert!(mean.is_finite() && var.is_finite());
    }

    #[test]
    fn repeated_top_size_extrapolates_flat_not_nan() {
        // Equal last two sizes have no measurable slope; the tail must
        // fall back to a constant, not divide by zero.
        let (mean, var) =
            integrate_size_distribution(&[100, 100], &[1.0e5, 1.0e5], &[0.0, 0.0], 50.0);
        assert!(mean.is_finite(), "mean {mean}");
        assert!(var.is_finite());
        // Constant CA across the whole spectrum integrates to itself.
        assert!((mean - 1.0e5).abs() < 1e-6, "mean {mean}");
    }
}
