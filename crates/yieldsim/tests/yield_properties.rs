//! Property-based tests for the yield models (dfm-check harness).

use dfm_check::{check, prop_assert, prop_assert_eq, prop_assume, Config, Gen};
use dfm_geom::{Rect, Region};
use dfm_yield::{critical_area, model, via_model, DefectModel};

fn cfg() -> Config {
    Config::with_cases(64)
}

/// Yield models stay in (0, 1] and are monotone in their arguments.
#[test]
fn yield_model_bounds() {
    check(
        "yield_model_bounds",
        &cfg(),
        &(0.0f64..1e12, 0.0f64..1e5, 0.1f64..100.0),
        |v| {
            let (ac, d0, alpha) = *v;
            let y = model::poisson_yield(ac, d0);
            prop_assert!((0.0..=1.0).contains(&y));
            let nb = model::negative_binomial_yield(ac, d0, alpha);
            prop_assert!((0.0..=1.0).contains(&nb));
            // Clustering never hurts yield relative to Poisson.
            prop_assert!(nb >= y - 1e-12);
            // Monotone in critical area.
            prop_assert!(model::poisson_yield(ac * 2.0, d0) <= y + 1e-12);
            Ok(())
        },
    );
}

/// Short CA grows monotonically as wires move closer.
#[test]
fn short_ca_monotone_in_spacing() {
    check(
        "short_ca_monotone_in_spacing",
        &cfg(),
        &(60i64..200, 1i64..200, 1_000i64..50_000),
        |v| {
            let (s1, delta, len) = *v;
            let defects = DefectModel::new(45, 1.0);
            let make = |gap: i64| {
                Region::from_rects([
                    Rect::new(0, 0, len, 100),
                    Rect::new(0, 100 + gap, len, 200 + gap),
                ])
            };
            let close = critical_area::analyze(&make(s1), &defects).short_ca_nm2;
            let far = critical_area::analyze(&make(s1 + delta), &defects).short_ca_nm2;
            prop_assert!(close >= far, "closer {close} < farther {far}");
            Ok(())
        },
    );
}

/// The closed form matches the hand formula on a single pair.
#[test]
fn pair_formula_exact() {
    check(
        "pair_formula_exact",
        &cfg(),
        &(50i64..400, 100i64..10_000, 10i64..50),
        |v| {
            let (s, len, x0) = *v;
            // For s >= x0 the average CA of one pair is L·x0²/s.
            prop_assume!(s >= x0);
            let got = critical_area::pair_average_ca(s, len, x0);
            let want = len as f64 * (x0 * x0) as f64 / s as f64;
            prop_assert!((got - want).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Via yield: redundancy monotone, bounds respected.
#[test]
fn via_yield_properties() {
    check(
        "via_yield_properties",
        &cfg(),
        &(0usize..1000, 0usize..1000, 0.0f64..0.5),
        |v| {
            let (single, redundant, p) = *v;
            let stats = via_model::ViaStats { single, redundant };
            let y = via_model::via_yield(stats, p);
            prop_assert!((0.0..=1.0).contains(&y));
            // Converting singles to redundant pairs never lowers yield.
            if single > 0 {
                let improved = via_model::ViaStats {
                    single: single - 1,
                    redundant: redundant + 1,
                };
                prop_assert!(via_model::via_yield(improved, p) >= y - 1e-12);
            }
            // λ is consistent with the yield to first order at small p.
            let lambda = via_model::expected_failures(stats, p);
            if lambda < 0.01 {
                prop_assert!((y - (-lambda).exp()).abs() < 1e-3);
            }
            Ok(())
        },
    );
}

/// `classify` equals an O(n²) union-find over the via rects: two cuts
/// share a connection when their Chebyshev gap `max(dx, dy)` is at most
/// `pair_distance`, transitively; a group of two or more cuts is one
/// redundant connection. Cuts are 90 wide on a 30-unit lattice, so they
/// overlap, abut and sit 60 or 180 apart often.
#[test]
fn classify_matches_the_pairwise_grouping() {
    let cut =
        (0i64..40, 0i64..12).prop_map(|(x, y)| Rect::new(x * 30, y * 30, x * 30 + 90, y * 30 + 90));
    check(
        "classify_matches_the_pairwise_grouping",
        &cfg(),
        &(dfm_check::vec(cut, 0..24), 0usize..3),
        |v| {
            let (cuts, pick) = v;
            let pair_distance = [0, 60, 180][*pick];
            let vias = Region::from_rects(cuts.iter().copied());
            let rects = vias.rects();
            let mut parent: Vec<usize> = (0..rects.len()).collect();
            fn find(parent: &[usize], mut i: usize) -> usize {
                while parent[i] != i {
                    i = parent[i];
                }
                i
            }
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    let (dx, dy) = rects[i].gap(&rects[j]);
                    if dx.max(dy) <= pair_distance {
                        let (a, b) = (find(&parent, i), find(&parent, j));
                        parent[a] = b;
                    }
                }
            }
            let mut sizes = vec![0usize; rects.len()];
            for i in 0..rects.len() {
                sizes[find(&parent, i)] += 1;
            }
            let want = via_model::ViaStats {
                single: sizes.iter().filter(|&&s| s == 1).count(),
                redundant: sizes.iter().filter(|&&s| s >= 2).count(),
            };
            prop_assert_eq!(via_model::classify(&vias, pair_distance), want);
            Ok(())
        },
    );
}

/// The defect survival function integrates the sampler: empirical
/// exceedance matches (x0/x)² within Monte-Carlo noise.
#[test]
fn sampler_matches_survival() {
    check(
        "sampler_matches_survival",
        &cfg(),
        &(10i64..100, 2i64..6),
        |v| {
            let (x0, factor) = *v;
            let m = DefectModel::new(x0, 1.0);
            let mut rng = dfm_rand::Rng::seed_from_u64(9);
            let n = 20_000;
            let threshold = x0 * factor;
            let over = (0..n)
                .filter(|_| m.sample_diameter(&mut rng) > threshold)
                .count() as f64
                / n as f64;
            let want = m.survival(threshold);
            prop_assert!((over - want).abs() < 0.02, "{over} vs {want}");
            Ok(())
        },
    );
}

/// Brute-force numeric integration of the same piecewise model the
/// closed form in `monte_carlo::integrate_size_distribution` encodes:
/// constant CA per geometric bin, linear (or degenerate-constant) tail,
/// against the 2x0²/x³ defect-size pdf. The trapezoid rule runs in
/// u = 1/x, where both the bin integrand (ca·u) and the tail integrand
/// (c0·u + c1) are linear, so the only error is tail truncation.
fn brute_force_size_mean(sizes: &[i64], ca: &[f64], x0: f64) -> f64 {
    let n = sizes.len();
    if n == 0 {
        return 0.0;
    }
    let mut bounds = vec![x0];
    for j in 1..n {
        bounds.push((sizes[j - 1] as f64 * sizes[j] as f64).sqrt());
    }
    let b_last = sizes[n - 1] as f64 * 2f64.sqrt();
    bounds.push(b_last);
    let integrate = |a: f64, b: f64, f: &dyn Fn(f64) -> f64| -> f64 {
        let (ua, ub) = (1.0 / b, 1.0 / a);
        let steps = 4000usize;
        let h = (ub - ua) / steps as f64;
        let g = |u: f64| f(1.0 / u) * u;
        let mut s = (g(ua) + g(ub)) / 2.0;
        for k in 1..steps {
            s += g(ua + h * k as f64);
        }
        2.0 * x0 * x0 * s * h
    };
    let mut mean = 0.0;
    for j in 0..n {
        mean += integrate(bounds[j], bounds[j + 1], &|_| ca[j]);
    }
    let (c0, c1) = if n >= 2 && sizes[n - 1] > sizes[n - 2] {
        let (d1, d2) = (sizes[n - 2] as f64, sizes[n - 1] as f64);
        let slope = (ca[n - 1] - ca[n - 2]) / (d2 - d1);
        (ca[n - 1] - slope * d2, slope)
    } else {
        (ca[n - 1], 0.0) // single sample or repeated top size: flat tail
    };
    mean + integrate(b_last, b_last * 1e7, &|x| c0 + c1 * x).max(0.0)
}

/// The closed-form size-distribution integration matches brute force on
/// random spectra — including the degenerate single-size (n == 1) case
/// that used to lose its tail mass, and repeated top sizes.
#[test]
fn size_integration_matches_brute_force() {
    check(
        "size_integration_matches_brute_force",
        &cfg(),
        &(
            dfm_check::vec((0i64..400, 0i64..1_000_000), 1..9),
            10i64..200,
        ),
        |v| {
            let (steps, x0_int) = v;
            let x0 = *x0_int as f64;
            let mut sizes: Vec<i64> = Vec::new();
            let mut ca: Vec<f64> = Vec::new();
            let mut d = *x0_int;
            for (gap, c) in steps {
                d += 1 + gap; // strictly increasing, ≥ x0 + 1
                sizes.push(d);
                ca.push(*c as f64 * 10.0);
            }
            let se = vec![0.0; sizes.len()];
            let (mean, var) =
                dfm_yield::monte_carlo::integrate_size_distribution(&sizes, &ca, &se, x0);
            prop_assert!(mean.is_finite() && var == 0.0, "mean {mean} var {var}");
            let brute = brute_force_size_mean(&sizes, &ca, x0);
            let tol = 1e-5 * mean.abs().max(brute.abs()).max(1.0);
            prop_assert!(
                (mean - brute).abs() <= tol,
                "closed form {mean} vs brute force {brute} (n = {})",
                sizes.len()
            );
            Ok(())
        },
    );
}
