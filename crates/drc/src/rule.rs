//! The DRC rule vocabulary, rule decks, and the deck DSL parser.

use dfm_layout::{layers, Layer, Technology};
use std::error::Error;
use std::fmt;

/// A single design rule.
#[derive(Clone, PartialEq, Debug)]
pub enum Rule {
    /// Every feature on `layer` must be at least `value` wide in both
    /// axes (facing interior edge pairs).
    MinWidth {
        /// Checked layer.
        layer: Layer,
        /// Minimum width in dbu.
        value: i64,
    },
    /// Exterior-facing edge pairs on `layer` must be at least `value`
    /// apart (includes notches and corner-to-corner separation).
    MinSpace {
        /// Checked layer.
        layer: Layer,
        /// Minimum spacing in dbu.
        value: i64,
    },
    /// Geometry on `from` must stay at least `value` away from geometry on
    /// `to` (Chebyshev metric).
    MinSpaceTo {
        /// First layer.
        from: Layer,
        /// Second layer.
        to: Layer,
        /// Minimum separation in dbu.
        value: i64,
    },
    /// `outer` must enclose every `inner` shape by at least `value` on
    /// all sides.
    Enclosure {
        /// Enclosed layer (e.g. a via).
        inner: Layer,
        /// Enclosing layer (e.g. a metal).
        outer: Layer,
        /// Minimum enclosure in dbu.
        value: i64,
    },
    /// Every connected component on `layer` must have at least `value`
    /// area (dbu²).
    MinArea {
        /// Checked layer.
        layer: Layer,
        /// Minimum area in dbu².
        value: i64,
    },
    /// Features wider than `wide_width` (in both axes) must keep
    /// `space` to everything on the layer — the classic width-dependent
    /// ("fat wire") spacing rule.
    WideSpace {
        /// Checked layer.
        layer: Layer,
        /// Width threshold above which a feature counts as wide.
        wide_width: i64,
        /// Required spacing from wide features.
        space: i64,
    },
    /// Density of `layer` in every `window`-sized window (stepped by half
    /// a window) must lie within `[min, max]`.
    Density {
        /// Checked layer.
        layer: Layer,
        /// Window edge length in dbu.
        window: i64,
        /// Minimum density (0–1).
        min: f64,
        /// Maximum density (0–1).
        max: f64,
    },
}

impl Rule {
    /// A short stable identifier used in reports, e.g. `M1.W`, `V1.EN.M1`.
    pub fn id(&self) -> String {
        fn short(l: Layer) -> String {
            l.name()
                .map(|n| n.to_string())
                .unwrap_or_else(|| l.to_string())
        }
        match self {
            Rule::MinWidth { layer, .. } => format!("{}.W", short(*layer)),
            Rule::MinSpace { layer, .. } => format!("{}.S", short(*layer)),
            Rule::MinSpaceTo { from, to, .. } => format!("{}.S.{}", short(*from), short(*to)),
            Rule::Enclosure { inner, outer, .. } => {
                format!("{}.EN.{}", short(*inner), short(*outer))
            }
            Rule::MinArea { layer, .. } => format!("{}.A", short(*layer)),
            Rule::WideSpace { layer, .. } => format!("{}.WS", short(*layer)),
            Rule::Density { layer, .. } => format!("{}.DEN", short(*layer)),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::MinWidth { layer, value } => write!(f, "min_width {layer} {value}"),
            Rule::MinSpace { layer, value } => write!(f, "min_space {layer} {value}"),
            Rule::MinSpaceTo { from, to, value } => write!(f, "space_to {from} {to} {value}"),
            Rule::Enclosure {
                inner,
                outer,
                value,
            } => {
                write!(f, "enclosure {inner} {outer} {value}")
            }
            Rule::MinArea { layer, value } => write!(f, "min_area {layer} {value}"),
            Rule::WideSpace {
                layer,
                wide_width,
                space,
            } => {
                write!(f, "wide_space {layer} {wide_width} {space}")
            }
            Rule::Density {
                layer,
                window,
                min,
                max,
            } => {
                write!(f, "density {layer} {window} {min} {max}")
            }
        }
    }
}

/// Error from [`RuleDeck::parse`].
#[derive(Clone, Debug, PartialEq)]
pub struct ParseDeckError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseDeckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deck parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseDeckError {}

/// An ordered collection of design rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleDeck {
    rules: Vec<Rule>,
}

impl RuleDeck {
    /// Creates an empty deck.
    pub fn new() -> Self {
        RuleDeck { rules: Vec::new() }
    }

    /// Adds a rule, returning `self` for chaining.
    pub fn with(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a rule in place.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules in deck order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the deck has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Builds the standard sign-off deck for a technology: width, space
    /// and area on every ruled layer; via enclosures; and metal density
    /// windows.
    pub fn for_technology(tech: &Technology) -> Self {
        let mut deck = RuleDeck::new();
        for layer in tech.ruled_layers() {
            let r = tech.rules(layer);
            deck.push(Rule::MinWidth {
                layer,
                value: r.min_width,
            });
            deck.push(Rule::MinSpace {
                layer,
                value: r.min_space,
            });
            deck.push(Rule::MinArea {
                layer,
                value: r.min_area,
            });
        }
        for &via in layers::VIAS {
            if let Some((below, above)) = layers::via_connects(via) {
                deck.push(Rule::Enclosure {
                    inner: via,
                    outer: below,
                    value: tech.via_enclosure,
                });
                deck.push(Rule::Enclosure {
                    inner: via,
                    outer: above,
                    value: tech.via_enclosure,
                });
            }
        }
        deck.push(Rule::Enclosure {
            inner: layers::CONTACT,
            outer: layers::METAL1,
            value: tech.via_enclosure,
        });
        for &m in &[layers::METAL1, layers::METAL2] {
            deck.push(Rule::Density {
                layer: m,
                window: tech.density_window,
                min: tech.min_density,
                max: tech.max_density,
            });
        }
        deck
    }

    /// Parses the tiny deck DSL: one rule per line, `#` comments.
    ///
    /// ```text
    /// # metal-1 rules
    /// min_width METAL1 90
    /// min_space METAL1 90
    /// min_area  METAL1 32400
    /// enclosure VIA1 METAL1 36
    /// space_to  POLY ACTIVE 50
    /// density   METAL1 18000 0.20 0.80
    /// ```
    ///
    /// Layer operands accept standard names (`METAL1`) or numeric
    /// `layer/datatype` (`4/0`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseDeckError`] with the offending line number.
    pub fn parse(text: &str) -> Result<Self, ParseDeckError> {
        let mut deck = RuleDeck::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let err = |message: String| ParseDeckError {
                line: line_no,
                message,
            };
            let layer_of = |tok: &str| -> Result<Layer, ParseDeckError> {
                parse_layer(tok).ok_or_else(|| err(format!("unknown layer {tok:?}")))
            };
            // Every integer operand is a distance or an area: a negative
            // one is refused here rather than left to panic in the
            // engine's bloat or shrink, and a density window must be
            // positive to cover anything.
            let int_of = |tok: &str, min: i64| -> Result<i64, ParseDeckError> {
                match tok.parse::<i64>() {
                    Ok(v) if v >= min => Ok(v),
                    Ok(v) => Err(err(format!("operand {v} must be at least {min}"))),
                    Err(_) => Err(err(format!("bad integer {tok:?}"))),
                }
            };
            let float_of = |tok: &str| -> Result<f64, ParseDeckError> {
                tok.parse::<f64>()
                    .map_err(|_| err(format!("bad number {tok:?}")))
            };
            let need = |n: usize| -> Result<(), ParseDeckError> {
                if tokens.len() == n {
                    Ok(())
                } else {
                    Err(err(format!(
                        "expected {} operands, got {}",
                        n - 1,
                        tokens.len() - 1
                    )))
                }
            };
            let rule = match tokens[0] {
                "min_width" => {
                    need(3)?;
                    Rule::MinWidth {
                        layer: layer_of(tokens[1])?,
                        value: int_of(tokens[2], 0)?,
                    }
                }
                "min_space" => {
                    need(3)?;
                    Rule::MinSpace {
                        layer: layer_of(tokens[1])?,
                        value: int_of(tokens[2], 0)?,
                    }
                }
                "space_to" => {
                    need(4)?;
                    Rule::MinSpaceTo {
                        from: layer_of(tokens[1])?,
                        to: layer_of(tokens[2])?,
                        value: int_of(tokens[3], 0)?,
                    }
                }
                "enclosure" => {
                    need(4)?;
                    Rule::Enclosure {
                        inner: layer_of(tokens[1])?,
                        outer: layer_of(tokens[2])?,
                        value: int_of(tokens[3], 0)?,
                    }
                }
                "min_area" => {
                    need(3)?;
                    Rule::MinArea {
                        layer: layer_of(tokens[1])?,
                        value: int_of(tokens[2], 0)?,
                    }
                }
                "wide_space" => {
                    need(4)?;
                    Rule::WideSpace {
                        layer: layer_of(tokens[1])?,
                        wide_width: int_of(tokens[2], 0)?,
                        space: int_of(tokens[3], 0)?,
                    }
                }
                "density" => {
                    need(5)?;
                    Rule::Density {
                        layer: layer_of(tokens[1])?,
                        window: int_of(tokens[2], 1)?,
                        min: float_of(tokens[3])?,
                        max: float_of(tokens[4])?,
                    }
                }
                other => return Err(err(format!("unknown rule keyword {other:?}"))),
            };
            deck.push(rule);
        }
        Ok(deck)
    }
}

fn parse_layer(tok: &str) -> Option<Layer> {
    if let Some((l, n)) = layers::ALL.iter().find(|(_, n)| *n == tok) {
        let _ = n;
        return Some(*l);
    }
    let (l, d) = tok.split_once('/')?;
    Some(Layer::new(l.parse().ok()?, d.parse().ok()?))
}

impl FromIterator<Rule> for RuleDeck {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        RuleDeck {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rule> for RuleDeck {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let text = "\
# comment line
min_width METAL1 90
min_space METAL1 90   # trailing comment
space_to POLY ACTIVE 50
enclosure VIA1 METAL1 36
min_area METAL1 32400
wide_space METAL1 270 135
density METAL1 18000 0.20 0.80
min_width 42/7 120
";
        let deck = RuleDeck::parse(text).expect("parses");
        assert_eq!(deck.len(), 8);
        assert_eq!(
            deck.rules()[0],
            Rule::MinWidth {
                layer: layers::METAL1,
                value: 90
            }
        );
        assert_eq!(
            deck.rules()[5],
            Rule::WideSpace {
                layer: layers::METAL1,
                wide_width: 270,
                space: 135
            }
        );
        assert_eq!(
            deck.rules()[7],
            Rule::MinWidth {
                layer: Layer::new(42, 7),
                value: 120
            }
        );
        // Re-parse the Display form.
        let text2: String = deck
            .rules()
            .iter()
            .map(|r| {
                // Display uses numeric layers; ensure that re-parses too.
                format!("{r}\n")
            })
            .collect();
        let deck2 = RuleDeck::parse(&text2).expect("display form parses");
        assert_eq!(deck2.len(), deck.len());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = RuleDeck::parse("min_width METAL1 90\nbogus FOO 1\n").expect_err("must fail");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));

        let err = RuleDeck::parse("min_width NOTALAYER 90\n").expect_err("must fail");
        assert!(err.message.contains("NOTALAYER"));

        let err = RuleDeck::parse("min_width METAL1 ninety\n").expect_err("must fail");
        assert!(err.message.contains("ninety"));

        let err = RuleDeck::parse("min_width METAL1\n").expect_err("must fail");
        assert!(err.message.contains("operands"));

        // Negative distances and empty density windows are refused at
        // parse time, not left to panic (or check nothing) in the engine.
        for bad in [
            "min_width METAL1 -1",
            "min_space METAL1 -90",
            "space_to METAL1 POLY -5",
            "enclosure VIA1 METAL1 -3",
            "min_area METAL1 -100",
            "wide_space METAL1 -10 20",
            "wide_space METAL1 270 -1",
            "density METAL1 0 0.2 0.8",
            "density METAL1 -5 0.2 0.8",
        ] {
            let err = RuleDeck::parse(&format!("min_width METAL1 90\n{bad}\n")).expect_err(bad);
            assert_eq!(err.line, 2, "{bad}");
            assert!(err.message.contains("at least"), "{bad}: {err}");
        }
    }

    #[test]
    fn technology_deck_covers_all_layers() {
        let tech = Technology::n65();
        let deck = RuleDeck::for_technology(&tech);
        // width+space+area per ruled layer, plus enclosures and densities.
        let ruled = tech.ruled_layers().count();
        assert!(deck.len() >= ruled * 3 + 4);
        assert!(deck
            .rules()
            .iter()
            .any(|r| matches!(r, Rule::Density { layer, .. } if *layer == layers::METAL1)));
    }

    #[test]
    fn rule_ids_are_stable() {
        assert_eq!(
            Rule::MinWidth {
                layer: layers::METAL1,
                value: 1
            }
            .id(),
            "METAL1.W"
        );
        assert_eq!(
            Rule::Enclosure {
                inner: layers::VIA1,
                outer: layers::METAL2,
                value: 1
            }
            .id(),
            "VIA1.EN.METAL2"
        );
    }
}
