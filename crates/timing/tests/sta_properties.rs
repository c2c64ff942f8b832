//! Property-based tests for the STA engine (dfm-check harness).

use dfm_check::{check, prop_assert, prop_assert_eq, Config};
use dfm_timing::{extract, sta, DelayModel, Netlist};

fn cfg() -> Config {
    Config::with_cases(32)
}

/// Worst slack shifts exactly with the clock period.
#[test]
fn slack_linear_in_clock() {
    check(
        "slack_linear_in_clock",
        &cfg(),
        &(
            2usize..8,
            2usize..8,
            0u64..100,
            100.0f64..1000.0,
            1.0f64..500.0,
        ),
        |v| {
            let (levels, width, seed, clock, extra) = *v;
            let n = Netlist::random(levels, width, seed);
            let model = DelayModel::default();
            let lengths = extract::drawn(&n);
            let a = sta::run(&n, &lengths, &model, clock);
            let b = sta::run(&n, &lengths, &model, clock + extra);
            prop_assert!((b.worst_slack - a.worst_slack - extra).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Longer gates everywhere never improve the worst slack, and never
/// increase leakage.
#[test]
fn uniform_slowdown_is_monotone() {
    check(
        "uniform_slowdown_is_monotone",
        &cfg(),
        &(2usize..8, 2usize..8, 0u64..100, 0.01f64..0.3),
        |v| {
            let (levels, width, seed, margin) = *v;
            let n = Netlist::random(levels, width, seed);
            let model = DelayModel::default();
            let nominal = sta::run(&n, &extract::drawn(&n), &model, 500.0);
            let slow = sta::run(&n, &extract::corner(&n, margin), &model, 500.0);
            prop_assert!(slow.worst_slack <= nominal.worst_slack + 1e-9);
            prop_assert!(slow.leakage_na <= nominal.leakage_na + 1e-9);
            Ok(())
        },
    );
}

/// Arrival times are monotone along every fan-in edge (the DAG
/// propagation invariant).
#[test]
fn arrivals_monotone_along_edges() {
    check(
        "arrivals_monotone_along_edges",
        &cfg(),
        &(2usize..8, 2usize..8, 0u64..100),
        |v| {
            let (levels, width, seed) = *v;
            let n = Netlist::random(levels, width, seed);
            let model = DelayModel::default();
            let r = sta::run(&n, &extract::drawn(&n), &model, 500.0);
            for g in 0..n.len() {
                for &i in n.fanins(dfm_timing::GateId(g)) {
                    prop_assert!(r.arrival[i.0] <= r.arrival[g] + 1e-9);
                }
            }
            // The critical path ends at the worst output.
            let (worst_out, worst_slack) = r.output_slack[0];
            prop_assert_eq!(r.critical_path.last().copied(), Some(worst_out));
            prop_assert!((500.0 - r.arrival[worst_out.0] - worst_slack).abs() < 1e-9);
            Ok(())
        },
    );
}

/// The Spearman statistic is bounded and exactly 1 on identical
/// slack vectors.
#[test]
fn spearman_bounds() {
    check(
        "spearman_bounds",
        &cfg(),
        &dfm_check::vec(-100.0f64..100.0, 2..30),
        |values| {
            let rho = dfm_timing::spearman_rank_correlation(values, values);
            prop_assert!((rho - 1.0).abs() < 1e-9);
            let mut reversed = values.clone();
            reversed.reverse();
            let r2 = dfm_timing::spearman_rank_correlation(values, &reversed);
            prop_assert!((-1.0..=1.0).contains(&r2));
            Ok(())
        },
    );
}

/// The ECO never worsens the worst slack and never exceeds the drive
/// cap.
#[test]
fn eco_is_safe() {
    check(
        "eco_is_safe",
        &cfg(),
        &(3usize..7, 3usize..7, 0u64..50),
        |v| {
            let (levels, width, seed) = *v;
            let mut n = Netlist::random(levels, width, seed);
            let model = DelayModel::default();
            let lengths = extract::drawn(&n);
            let before = sta::run(&n, &lengths, &model, 400.0).worst_slack;
            let report = dfm_timing::eco::upsize(&mut n, &lengths, &model, 400.0, 6);
            let after = sta::run(&n, &lengths, &model, 400.0).worst_slack;
            prop_assert!(after >= before - 1e-9, "{before} -> {after}");
            prop_assert!(
                (after - report.slack_trace.last().copied().unwrap_or(before)).abs() < 1e-9
            );
            prop_assert!(n.gates().iter().all(|g| g.drive <= 4.0 + 1e-9));
            Ok(())
        },
    );
}
