//! Violations and DRC reports.

use dfm_geom::Rect;
use std::collections::BTreeMap;
use std::fmt;

/// One located design-rule violation.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Stable id of the violated rule (see [`crate::Rule::id`]).
    pub rule: String,
    /// Marker rectangle locating the violation.
    pub location: Rect,
    /// The measured value (width, spacing, enclosure margin, area,
    /// density in ppm…). Always a real measurement of the violating
    /// geometry, never a sentinel.
    pub actual: i64,
    /// The rule limit in the same unit.
    pub limit: i64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Density-max violations exceed their limit; everything else
        // falls short of it. Print the applicable direction.
        let relation = if self.actual > self.limit { ">" } else { "<" };
        write!(
            f,
            "{} at {}: {} {relation} {}",
            self.rule, self.location, self.actual, self.limit
        )
    }
}

/// The result of running a rule deck: all violations plus aggregation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrcReport {
    violations: Vec<Violation>,
}

impl DrcReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        DrcReport::default()
    }

    /// Appends a violation.
    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// All violations in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total number of violations.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// True if the layout is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one rule id.
    pub fn by_rule(&self, rule: &str) -> impl Iterator<Item = &Violation> + '_ {
        let rule = rule.to_string();
        self.violations.iter().filter(move |v| v.rule == rule)
    }

    /// Violation counts per rule id, sorted by id.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.rule.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: DrcReport) {
        self.violations.extend(other.violations);
    }

    /// Score metrics for the manufacturability score (`dfm-score`):
    /// the total violation count as `drc.violations` plus one
    /// `drc.rule.<id>` entry per offending rule, in rule-id order.
    /// Clean rules emit no entry (the score spec's `drc.rule.*`
    /// wildcard governs whatever appears).
    pub fn score_metrics(&self) -> Vec<(String, f64)> {
        let mut out = vec![("drc.violations".to_string(), self.violation_count() as f64)];
        for (rule, count) in self.counts() {
            out.push((format!("drc.rule.{rule}"), count as f64));
        }
        out
    }
}

impl fmt::Display for DrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "DRC clean");
        }
        writeln!(f, "DRC: {} violations", self.violation_count())?;
        for (rule, count) in self.counts() {
            writeln!(f, "  {rule:<18} {count}")?;
        }
        Ok(())
    }
}

impl Extend<Violation> for DrcReport {
    fn extend<I: IntoIterator<Item = Violation>>(&mut self, iter: I) {
        self.violations.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &str) -> Violation {
        Violation {
            rule: rule.into(),
            location: Rect::new(0, 0, 1, 1),
            actual: 5,
            limit: 10,
        }
    }

    #[test]
    fn counting_and_grouping() {
        let mut r = DrcReport::new();
        r.push(v("M1.W"));
        r.push(v("M1.W"));
        r.push(v("M1.S"));
        assert_eq!(r.violation_count(), 3);
        assert_eq!(r.counts()["M1.W"], 2);
        assert_eq!(r.by_rule("M1.S").count(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn display_summary() {
        let mut r = DrcReport::new();
        r.push(v("M1.W"));
        let text = r.to_string();
        assert!(text.contains("1 violations"));
        assert!(text.contains("M1.W"));
        assert_eq!(DrcReport::new().to_string().trim(), "DRC clean");
    }

    #[test]
    fn merge_combines() {
        let mut a = DrcReport::new();
        a.push(v("A"));
        let mut b = DrcReport::new();
        b.push(v("B"));
        a.merge(b);
        assert_eq!(a.violation_count(), 2);
    }
}
