//! # dfm-score — weighted manufacturability scoring
//!
//! Folds heterogeneous analysis results (DRC violation counts, litho
//! print fidelity, critical area, pattern statistics, via redundancy)
//! into **one number in `[0, 1]`** plus a per-metric breakdown, so a
//! CI gate or a fix loop can compare layouts with a single `<`.
//!
//! The model is a three-stage pipeline:
//!
//! 1. **metric** — a named raw measurement (`"drc.violations"`,
//!    `"ca.short_nm2"`, …) produced by the analysis crates,
//! 2. **scorer** — a pluggable map from the raw value to `[0, 1]`
//!    ([`Scorer`]: identity clamp, inverse decay, linear ramp, hard
//!    step, or a Poisson yield model for critical-area metrics),
//! 3. **weight / aggregate** — a weighted arithmetic mean over every
//!    matched metric; per-metric `min` floors veto the pass verdict
//!    independently of the aggregate.
//!
//! Which scorer and weight apply to which metric is configured by a
//! [`ScoreSpec`]: a line-oriented text format (see [`ScoreSpec::parse`])
//! with exact and trailing-`*` wildcard metric keys, so a deck-wide
//! default (`drc.rule.*`) and a targeted override (`drc.rule.M1_WIDTH`)
//! coexist — the per-rule weighting methodology of Tripathi et al.'s
//! in-design DFM rule scoring.
//!
//! The output [`ScoreReport`] renders to JSON with a **stable field
//! order** (metrics sorted by key, values written with shortest
//! round-trip float formatting), so equal inputs produce byte-identical
//! reports — the property the signoff determinism suites pin with a
//! golden digest. [`exit_code`] maps a report onto the CLI contract
//! `0 = pass, 1 = below threshold, 2 = partial, 3 = operational
//! error, 4 = submission rejected at admission`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_bench::json::JsonValue;
use std::collections::BTreeMap;

/// Process exit code: score met the pass threshold and every floor.
pub const EXIT_PASS: u8 = 0;
/// Process exit code: score below threshold (or a metric under its floor).
pub const EXIT_BELOW: u8 = 1;
/// Process exit code: the job settled `Partial` (quarantined tiles), so
/// the score covers only the surviving tiles.
pub const EXIT_PARTIAL: u8 = 2;
/// Process exit code: operational error (bad arguments, I/O, protocol).
pub const EXIT_ERROR: u8 = 3;
/// Process exit code: the service refused the submission at admission
/// (tenant quota, global backpressure, unknown tenant, or a draining
/// server) — retry later or elsewhere; nothing was enqueued.
pub const EXIT_REJECTED: u8 = 4;

/// Maps a verdict onto the CLI exit-code contract. `partial` dominates:
/// a score computed from a partial result set is not trustworthy enough
/// to pass, but is distinguishable from a clean fail.
#[must_use]
pub fn exit_code(pass: bool, partial: bool) -> u8 {
    if partial {
        EXIT_PARTIAL
    } else if pass {
        EXIT_PASS
    } else {
        EXIT_BELOW
    }
}

/// A map from a raw metric value to a score in `[0, 1]`.
///
/// Every scorer is total over finite inputs and clamps its output to
/// `[0, 1]`; non-finite inputs score 0 (a NaN measurement is treated as
/// maximally bad rather than poisoning the aggregate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scorer {
    /// The value already is a score: `clamp(v, 0, 1)`.
    Identity,
    /// Smooth decay for unbounded badness counts: `1 / (1 + v/scale)`.
    /// `v = 0` scores 1, `v = scale` scores 0.5.
    Inverse {
        /// Count at which the score halves (must be > 0).
        scale: f64,
    },
    /// Linear ramp down: `clamp(1 - v/limit, 0, 1)`.
    Linear {
        /// Value at (and beyond) which the score reaches 0 (must be > 0).
        limit: f64,
    },
    /// Hard gate: 1 if `v <= limit`, else 0.
    Step {
        /// Inclusive upper bound for a perfect score.
        limit: f64,
    },
    /// Poisson yield for a critical area in nm²:
    /// `exp(-v · d0 / 1e14)` with `d0` defects per cm².
    PoissonYield {
        /// Defect density in defects per cm² (must be >= 0).
        d0_per_cm2: f64,
    },
}

impl Scorer {
    /// Applies the scorer to a raw value.
    #[must_use]
    pub fn apply(&self, v: f64) -> f64 {
        if !v.is_finite() {
            return 0.0;
        }
        let s = match *self {
            Scorer::Identity => v,
            Scorer::Inverse { scale } => 1.0 / (1.0 + v.max(0.0) / scale),
            Scorer::Linear { limit } => 1.0 - v / limit,
            Scorer::Step { limit } => {
                if v <= limit {
                    1.0
                } else {
                    0.0
                }
            }
            // 1 cm² = 1e14 nm².
            Scorer::PoissonYield { d0_per_cm2 } => (-v.max(0.0) * d0_per_cm2 * 1e-14).exp(),
        };
        s.clamp(0.0, 1.0)
    }

    /// The spec-text spelling (`identity`, `inverse S`, `linear L`,
    /// `step L`, `yield D0`).
    #[must_use]
    pub fn render(&self) -> String {
        match *self {
            Scorer::Identity => "identity".to_string(),
            Scorer::Inverse { scale } => format!("inverse {scale}"),
            Scorer::Linear { limit } => format!("linear {limit}"),
            Scorer::Step { limit } => format!("step {limit}"),
            Scorer::PoissonYield { d0_per_cm2 } => format!("yield {d0_per_cm2}"),
        }
    }

    fn parse(kind: &str, param: Option<&str>, line_no: usize) -> Result<Scorer, String> {
        let need = |what: &str| -> Result<f64, String> {
            let raw =
                param.ok_or_else(|| format!("line {line_no}: scorer `{kind}` needs a {what}"))?;
            let v: f64 = raw
                .parse()
                .map_err(|_| format!("line {line_no}: bad scorer parameter `{raw}`"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "line {line_no}: scorer parameter must be > 0, got `{raw}`"
                ));
            }
            Ok(v)
        };
        match kind {
            "identity" => {
                if param.is_some() {
                    return Err(format!(
                        "line {line_no}: scorer `identity` takes no parameter"
                    ));
                }
                Ok(Scorer::Identity)
            }
            "inverse" => Ok(Scorer::Inverse {
                scale: need("scale")?,
            }),
            "linear" => Ok(Scorer::Linear {
                limit: need("limit")?,
            }),
            "step" => {
                // A step limit of 0 ("any violation fails") is legitimate.
                let raw =
                    param.ok_or_else(|| format!("line {line_no}: scorer `step` needs a limit"))?;
                let limit: f64 = raw
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad scorer parameter `{raw}`"))?;
                if !limit.is_finite() {
                    return Err(format!("line {line_no}: step limit must be finite"));
                }
                Ok(Scorer::Step { limit })
            }
            "yield" => Ok(Scorer::PoissonYield {
                d0_per_cm2: need("defect density")?,
            }),
            other => Err(format!("line {line_no}: unknown scorer `{other}`")),
        }
    }
}

/// One spec line: which metrics it matches and how they score.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRule {
    /// Metric key to match: exact, or a prefix ending in `*`.
    pub pattern: String,
    /// Aggregate weight. Zero keeps the metric in the breakdown but
    /// out of the aggregate (informational).
    pub weight: f64,
    /// The value → score map.
    pub scorer: Scorer,
    /// Per-metric floor: a matched metric scoring below this vetoes
    /// the pass verdict regardless of the aggregate.
    pub min_score: Option<f64>,
}

impl MetricRule {
    /// Whether this rule's pattern matches a metric key. A trailing
    /// `*` matches any suffix; otherwise the match is exact.
    #[must_use]
    pub fn matches(&self, key: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => key.starts_with(prefix),
            None => self.pattern == key,
        }
    }
}

/// A parsed scoring specification: the rule table plus the pass
/// threshold for the aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreSpec {
    /// Metric rules in declaration order.
    pub rules: Vec<MetricRule>,
    /// Aggregate score at or above which the layout passes.
    pub pass_threshold: f64,
}

/// The built-in default spec: covers every metric family the signoff
/// engines emit, weighted towards yield-relevant critical area.
pub const DEFAULT_SPEC_TEXT: &str = "\
# Built-in default manufacturability score spec.
pass 0.5
metric drc.violations        weight 2   scorer inverse 10
metric drc.rule.*            weight 0   scorer inverse 5
metric ca.short_nm2          weight 2   scorer yield 1000
metric ca.open_nm2           weight 2   scorer yield 1000
metric litho.area_ratio      weight 1   scorer identity
metric litho.printed_nm2     weight 0   scorer identity
metric via.redundancy        weight 1   scorer identity
metric pattern.top8_coverage weight 0.5 scorer identity
metric pattern.classes       weight 0   scorer inverse 256
";

impl ScoreSpec {
    /// The built-in default spec (always parses).
    ///
    /// # Panics
    ///
    /// Never — the default text is covered by a test.
    #[must_use]
    pub fn default_spec() -> ScoreSpec {
        ScoreSpec::parse(DEFAULT_SPEC_TEXT).expect("default spec text parses")
    }

    /// Parses the line-oriented spec text.
    ///
    /// Grammar (one directive per line, `#` comments, blank lines
    /// ignored):
    ///
    /// ```text
    /// pass 0.8
    /// metric KEY weight W scorer KIND [PARAM] [min FLOOR]
    /// ```
    ///
    /// `KEY` is an exact metric key or a prefix wildcard (`drc.rule.*`).
    /// Matching precedence at scoring time: exact key first, then the
    /// longest matching wildcard prefix, then declaration order.
    ///
    /// # Errors
    ///
    /// A diagnostic naming the offending line.
    pub fn parse(text: &str) -> Result<ScoreSpec, String> {
        let mut rules = Vec::new();
        let mut pass_threshold: Option<f64> = None;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("pass") => {
                    let raw = words
                        .next()
                        .ok_or_else(|| format!("line {line_no}: `pass` needs a threshold"))?;
                    let v: f64 = raw
                        .parse()
                        .map_err(|_| format!("line {line_no}: bad pass threshold `{raw}`"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!(
                            "line {line_no}: pass threshold must be in [0,1], got `{raw}`"
                        ));
                    }
                    if pass_threshold.replace(v).is_some() {
                        return Err(format!("line {line_no}: duplicate `pass` directive"));
                    }
                }
                Some("metric") => {
                    rules.push(parse_metric_line(&mut words, line_no)?);
                }
                Some(other) => {
                    return Err(format!("line {line_no}: unknown directive `{other}`"));
                }
                None => unreachable!("blank lines are skipped"),
            }
        }
        if rules.is_empty() {
            return Err("score spec has no `metric` lines".to_string());
        }
        Ok(ScoreSpec {
            rules,
            pass_threshold: pass_threshold.unwrap_or(0.5),
        })
    }

    /// Resolves CLI-style spec input: `None` or `"default"` gives the
    /// built-in spec, anything else is parsed as spec text.
    ///
    /// # Errors
    ///
    /// Parse diagnostics for non-default text.
    pub fn resolve(text: Option<&str>) -> Result<ScoreSpec, String> {
        match text {
            None => Ok(ScoreSpec::default_spec()),
            Some(t) if t.trim() == "default" || t.trim().is_empty() => {
                Ok(ScoreSpec::default_spec())
            }
            Some(t) => ScoreSpec::parse(t),
        }
    }

    /// The rule governing a metric key: exact match first, then the
    /// longest matching wildcard prefix (earliest declaration wins
    /// ties), else `None` (the metric is ignored).
    #[must_use]
    pub fn rule_for(&self, key: &str) -> Option<&MetricRule> {
        if let Some(exact) = self
            .rules
            .iter()
            .find(|r| !r.pattern.ends_with('*') && r.pattern == key)
        {
            return Some(exact);
        }
        self.rules
            .iter()
            .filter(|r| r.pattern.ends_with('*') && r.matches(key))
            .max_by_key(|r| r.pattern.len())
    }
}

fn parse_metric_line<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    line_no: usize,
) -> Result<MetricRule, String> {
    let pattern = words
        .next()
        .ok_or_else(|| format!("line {line_no}: `metric` needs a key"))?
        .to_string();
    if let Some(star) = pattern.find('*') {
        if star != pattern.len() - 1 {
            return Err(format!(
                "line {line_no}: `*` is only allowed at the end of a key"
            ));
        }
    }
    let mut weight: Option<f64> = None;
    let mut scorer: Option<Scorer> = None;
    let mut min_score: Option<f64> = None;
    let mut pending: Vec<&str> = words.collect();
    pending.reverse(); // pop() now yields words left to right
    while let Some(word) = pending.pop() {
        match word {
            "weight" => {
                let raw = pending
                    .pop()
                    .ok_or_else(|| format!("line {line_no}: `weight` needs a value"))?;
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad weight `{raw}`"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("line {line_no}: weight must be >= 0, got `{raw}`"));
                }
                weight = Some(v);
            }
            "scorer" => {
                let kind = pending
                    .pop()
                    .ok_or_else(|| format!("line {line_no}: `scorer` needs a kind"))?;
                // The parameter is the next word unless it is another
                // clause keyword (identity takes none).
                let param = match pending.last() {
                    Some(&w) if w != "min" && w != "weight" && w != "scorer" => pending.pop(),
                    _ => None,
                };
                scorer = Some(Scorer::parse(kind, param, line_no)?);
            }
            "min" => {
                let raw = pending
                    .pop()
                    .ok_or_else(|| format!("line {line_no}: `min` needs a floor"))?;
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad min floor `{raw}`"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("line {line_no}: min floor must be in [0,1]"));
                }
                min_score = Some(v);
            }
            other => {
                return Err(format!("line {line_no}: unexpected word `{other}`"));
            }
        }
    }
    Ok(MetricRule {
        pattern,
        weight: weight.ok_or_else(|| format!("line {line_no}: metric needs `weight W`"))?,
        scorer: scorer.ok_or_else(|| format!("line {line_no}: metric needs `scorer KIND`"))?,
        min_score,
    })
}

/// One scored metric in the report breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricScore {
    /// The metric key.
    pub key: String,
    /// The raw measured value.
    pub value: f64,
    /// The scorer output in `[0, 1]`.
    pub score: f64,
    /// The aggregate weight applied.
    pub weight: f64,
    /// Whether this metric scored below its `min` floor.
    pub below_floor: bool,
}

/// The scoring result: aggregate, verdict, and per-metric breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreReport {
    /// Weighted aggregate in `[0, 1]`. A spec whose matched weights sum
    /// to zero scores 1 (vacuously clean).
    pub score: f64,
    /// `score >= pass_threshold` and no metric below its floor.
    pub pass: bool,
    /// The spec's pass threshold, echoed for self-contained reports.
    pub pass_threshold: f64,
    /// Matched metrics sorted by key.
    pub metrics: Vec<MetricScore>,
}

impl ScoreReport {
    /// The deterministic JSON rendering: top-level fields in fixed
    /// order, metrics sorted by key, floats written with shortest
    /// round-trip formatting. Equal inputs give byte-identical output.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                JsonValue::obj(vec![
                    ("key", JsonValue::str(&m.key)),
                    ("value", JsonValue::Num(m.value)),
                    ("score", JsonValue::Num(m.score)),
                    ("weight", JsonValue::Num(m.weight)),
                    ("below_floor", JsonValue::Bool(m.below_floor)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("score", JsonValue::Num(self.score)),
            ("pass", JsonValue::Bool(self.pass)),
            ("pass_threshold", JsonValue::Num(self.pass_threshold)),
            ("metrics", JsonValue::Arr(metrics)),
        ])
    }

    /// The rendered JSON line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// FNV-1a digest of the rendered JSON — the golden-pin handle for
    /// determinism tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a_64(self.render().as_bytes())
    }

    /// The score of one metric by key, if present.
    #[must_use]
    pub fn metric(&self, key: &str) -> Option<&MetricScore> {
        self.metrics.iter().find(|m| m.key == key)
    }

    /// The CLI exit code for this verdict (`partial` forces 2).
    #[must_use]
    pub fn exit_code(&self, partial: bool) -> u8 {
        exit_code(self.pass, partial)
    }
}

/// Scores a metric set against a spec.
///
/// Metrics without a matching rule are dropped (the spec decides what
/// counts); duplicate keys keep the last value. The aggregate is the
/// weighted arithmetic mean of the matched scores; if every matched
/// weight is zero the aggregate is 1.0 (nothing weighed in, vacuous
/// pass — floors still apply).
#[must_use]
pub fn score(metrics: &[(String, f64)], spec: &ScoreSpec) -> ScoreReport {
    let mut by_key: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in metrics {
        by_key.insert(k.as_str(), *v);
    }
    let mut rows = Vec::new();
    let mut weighted_sum = 0.0;
    let mut weight_sum = 0.0;
    let mut any_below = false;
    for (key, value) in by_key {
        let Some(rule) = spec.rule_for(key) else {
            continue;
        };
        let s = rule.scorer.apply(value);
        let below = rule.min_score.is_some_and(|floor| s < floor);
        any_below |= below;
        weighted_sum += rule.weight * s;
        weight_sum += rule.weight;
        rows.push(MetricScore {
            key: key.to_string(),
            value,
            score: s,
            weight: rule.weight,
            below_floor: below,
        });
    }
    let aggregate = if weight_sum > 0.0 {
        weighted_sum / weight_sum
    } else {
        1.0
    };
    ScoreReport {
        score: aggregate,
        pass: aggregate >= spec.pass_threshold && !any_below,
        pass_threshold: spec.pass_threshold,
        metrics: rows,
    }
}

/// FNV-1a 64-bit hash (the workspace's standard digest).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ScoreSpec {
        ScoreSpec::parse(text).expect("spec parses")
    }

    #[test]
    fn default_spec_parses_and_covers_families() {
        let s = ScoreSpec::default_spec();
        assert!(s.rule_for("drc.violations").is_some());
        assert!(s.rule_for("drc.rule.M1_SPACE").is_some());
        assert!(s.rule_for("ca.short_nm2").is_some());
        assert!(s.rule_for("via.redundancy").is_some());
        assert!(s.rule_for("pattern.top8_coverage").is_some());
        assert!(s.rule_for("unknown.metric").is_none());
        assert_eq!(s.pass_threshold, 0.5);
    }

    #[test]
    fn scorers_map_into_unit_interval() {
        for (scorer, v, want) in [
            (Scorer::Identity, 0.7, 0.7),
            (Scorer::Identity, 3.0, 1.0),
            (Scorer::Identity, -1.0, 0.0),
            (Scorer::Inverse { scale: 10.0 }, 0.0, 1.0),
            (Scorer::Inverse { scale: 10.0 }, 10.0, 0.5),
            (Scorer::Linear { limit: 4.0 }, 1.0, 0.75),
            (Scorer::Linear { limit: 4.0 }, 9.0, 0.0),
            (Scorer::Step { limit: 2.0 }, 2.0, 1.0),
            (Scorer::Step { limit: 2.0 }, 2.5, 0.0),
            (Scorer::PoissonYield { d0_per_cm2: 1000.0 }, 0.0, 1.0),
        ] {
            let got = scorer.apply(v);
            assert!(
                (got - want).abs() < 1e-12,
                "{scorer:?}({v}) = {got}, want {want}"
            );
        }
        // Poisson yield is monotone decreasing in critical area.
        let y = Scorer::PoissonYield { d0_per_cm2: 1000.0 };
        assert!(y.apply(1e8) < y.apply(1e7));
    }

    #[test]
    fn nan_measurements_score_zero_not_nan() {
        for scorer in [
            Scorer::Identity,
            Scorer::Inverse { scale: 1.0 },
            Scorer::Linear { limit: 1.0 },
            Scorer::Step { limit: 1.0 },
            Scorer::PoissonYield { d0_per_cm2: 1.0 },
        ] {
            assert_eq!(scorer.apply(f64::NAN), 0.0);
            assert_eq!(scorer.apply(f64::INFINITY), 0.0);
        }
        let s = spec("pass 0.5\nmetric m weight 1 scorer identity\n");
        let r = score(&[("m".to_string(), f64::NAN)], &s);
        assert!(r.score.is_finite());
        assert_eq!(r.score, 0.0);
    }

    #[test]
    fn exact_match_beats_wildcard_and_longest_wildcard_wins() {
        let s = spec(
            "pass 0.5\n\
             metric drc.rule.* weight 1 scorer inverse 5\n\
             metric drc.* weight 9 scorer identity\n\
             metric drc.rule.M1 weight 3 scorer step 0\n",
        );
        assert_eq!(s.rule_for("drc.rule.M1").expect("rule").weight, 3.0);
        assert_eq!(s.rule_for("drc.rule.M2").expect("rule").weight, 1.0);
        assert_eq!(s.rule_for("drc.violations").expect("rule").weight, 9.0);
    }

    #[test]
    fn aggregate_is_weighted_mean_and_floors_veto() {
        let s = spec(
            "pass 0.6\n\
             metric a weight 3 scorer identity\n\
             metric b weight 1 scorer identity min 0.5\n",
        );
        // (3·1.0 + 1·0.2) / 4 = 0.8 ≥ 0.6, but b is under its floor.
        let r = score(&[("a".to_string(), 1.0), ("b".to_string(), 0.2)], &s);
        assert!((r.score - 0.8).abs() < 1e-12);
        assert!(!r.pass, "floor must veto");
        assert!(r.metric("b").expect("b").below_floor);
        // Lift b above the floor: passes.
        let r2 = score(&[("a".to_string(), 1.0), ("b".to_string(), 0.6)], &s);
        assert!(r2.pass);
    }

    #[test]
    fn zero_weight_metrics_are_breakdown_only() {
        let s = spec(
            "pass 0.5\n\
             metric good weight 1 scorer identity\n\
             metric info weight 0 scorer identity\n",
        );
        let r = score(&[("good".to_string(), 0.9), ("info".to_string(), 0.0)], &s);
        assert!(
            (r.score - 0.9).abs() < 1e-12,
            "info must not drag the aggregate"
        );
        assert!(
            r.metric("info").is_some(),
            "info still appears in the breakdown"
        );
    }

    #[test]
    fn all_zero_weights_score_one() {
        let s = spec("pass 0.5\nmetric a weight 0 scorer identity\n");
        let r = score(&[("a".to_string(), 0.0)], &s);
        assert_eq!(r.score, 1.0);
        assert!(r.pass);
    }

    #[test]
    fn unmatched_metrics_are_ignored() {
        let s = spec("pass 0.5\nmetric a weight 1 scorer identity\n");
        let r = score(&[("a".to_string(), 1.0), ("zzz".to_string(), 0.0)], &s);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.score, 1.0);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let s = spec(
            "pass 0.5\n\
             metric b weight 1 scorer identity\n\
             metric a weight 1 scorer identity\n",
        );
        // Input order must not matter.
        let r1 = score(&[("b".to_string(), 0.5), ("a".to_string(), 0.25)], &s);
        let r2 = score(&[("a".to_string(), 0.25), ("b".to_string(), 0.5)], &s);
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.digest(), r2.digest());
        let json = r1.render();
        let a = json.find("\"key\":\"a\"").expect("a present");
        let b = json.find("\"key\":\"b\"").expect("b present");
        assert!(a < b, "metrics must be sorted by key: {json}");
    }

    #[test]
    fn spec_parse_diagnostics_name_the_line() {
        for (text, needle) in [
            ("pass 2.0\nmetric a weight 1 scorer identity\n", "line 1"),
            (
                "metric a weight -1 scorer identity\n",
                "weight must be >= 0",
            ),
            ("metric a weight 1 scorer bogus\n", "unknown scorer"),
            ("metric a weight 1\n", "needs `scorer KIND`"),
            ("metric a scorer identity\n", "needs `weight W`"),
            ("metric a* b weight 1 scorer identity\n", "unexpected word"),
            (
                "metric a*b weight 1 scorer identity\n",
                "only allowed at the end",
            ),
            ("frobnicate 3\n", "unknown directive"),
            ("pass 0.5\n", "no `metric` lines"),
            ("metric a weight 1 scorer inverse 0\n", "must be > 0"),
        ] {
            let err = ScoreSpec::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "`{text}` gave `{err}`, wanted `{needle}`"
            );
        }
    }

    #[test]
    fn resolve_accepts_default_keyword() {
        assert_eq!(
            ScoreSpec::resolve(None).expect("ok"),
            ScoreSpec::default_spec()
        );
        assert_eq!(
            ScoreSpec::resolve(Some("default")).expect("ok"),
            ScoreSpec::default_spec()
        );
        assert!(ScoreSpec::resolve(Some("garbage here")).is_err());
    }

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(exit_code(true, false), EXIT_PASS);
        assert_eq!(exit_code(false, false), EXIT_BELOW);
        assert_eq!(exit_code(true, true), EXIT_PARTIAL);
        assert_eq!(exit_code(false, true), EXIT_PARTIAL);
    }

    #[test]
    fn min_clause_parses_in_any_position() {
        let s = spec("pass 0.5\nmetric a min 0.9 weight 1 scorer identity\n");
        assert_eq!(s.rules[0].min_score, Some(0.9));
        let s2 = spec("pass 0.5\nmetric a weight 1 scorer inverse 2 min 0.9\n");
        assert_eq!(s2.rules[0].min_score, Some(0.9));
        assert_eq!(s2.rules[0].scorer, Scorer::Inverse { scale: 2.0 });
    }
}
