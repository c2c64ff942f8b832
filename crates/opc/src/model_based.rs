//! Model-based OPC: iterative EPE-feedback correction.

use crate::fragment::{apply_offsets, Fragment, Fragmenter};
use dfm_geom::{Coord, Region};
use dfm_litho::metrics::{summarize_epe, x_intervals_at, y_intervals_at, EpeSample, EpeSummary};
use dfm_litho::{Condition, LithoSimulator};

/// Model-based OPC engine: simulate, measure per-fragment EPE against the
/// drawn target, move each fragment against its error, repeat.
#[derive(Clone, Debug)]
pub struct ModelOpc {
    /// The lithography model used in the feedback loop.
    pub sim: LithoSimulator,
    /// Feedback iterations.
    pub iterations: usize,
    /// Fraction of the measured EPE applied per iteration (0–1).
    pub gain: f64,
    /// Hard cap on any fragment's total offset (mask rule).
    pub max_move: Coord,
    /// Fragment length.
    pub fragment_len: Coord,
    /// Exposure condition the correction targets.
    pub condition: Condition,
}

/// The outcome of a model-based correction.
#[derive(Clone, Debug)]
pub struct OpcResult {
    /// The corrected mask.
    pub mask: Region,
    /// EPE statistics of the *uncorrected* mask.
    pub epe_before: EpeSummary,
    /// EPE statistics of the corrected mask.
    pub epe_after: EpeSummary,
    /// RMS EPE after each iteration (convergence trace).
    pub convergence: Vec<f64>,
}

impl ModelOpc {
    /// Creates an engine with defaults derived from the simulator's scale
    /// (fragment ≈ 2σ, 6 iterations, gain 0.7).
    pub fn new(sim: LithoSimulator) -> Self {
        let sigma = sim.optics.sigma0_nm();
        ModelOpc {
            sim,
            iterations: 6,
            gain: 0.7,
            max_move: (sigma * 1.2) as Coord,
            fragment_len: (2.0 * sigma) as Coord,
            condition: Condition::nominal(),
        }
    }

    /// Measures the per-fragment EPE of `printed` against the drawn
    /// target (positive = overprint along the outward normal). Missing
    /// image reads as a full pullback of `-max_move`.
    fn fragment_epe(&self, fragments: &[Fragment], printed: &Region) -> Vec<Coord> {
        // Probe well inside the drawn feature so ordinary pullback is
        // measured rather than read as "missing".
        let probe_depth = (self.max_move / 2).max(4);
        fragments
            .iter()
            .map(|f| {
                let cp = f.control_point();
                if f.vertical {
                    let ivs = x_intervals_at(printed, cp.y);
                    let inside_x = if f.outward_positive {
                        cp.x - probe_depth
                    } else {
                        cp.x + probe_depth
                    };
                    match ivs.iter().find(|iv| iv.contains(inside_x)) {
                        None => -self.max_move,
                        Some(iv) => {
                            if f.outward_positive {
                                iv.hi - cp.x
                            } else {
                                cp.x - iv.lo
                            }
                        }
                    }
                } else {
                    let ivs = y_intervals_at(printed, cp.x);
                    let inside_y = if f.outward_positive {
                        cp.y - probe_depth
                    } else {
                        cp.y + probe_depth
                    };
                    match ivs.iter().find(|iv| iv.contains(inside_y)) {
                        None => -self.max_move,
                        Some(iv) => {
                            if f.outward_positive {
                                iv.hi - cp.y
                            } else {
                                cp.y - iv.lo
                            }
                        }
                    }
                }
            })
            .collect()
    }

    /// Runs the correction loop on `drawn`, returning the corrected mask
    /// and before/after verification statistics.
    pub fn correct(&self, drawn: &Region) -> OpcResult {
        let fragments = Fragmenter::new(self.fragment_len).fragment(drawn);
        let mut offsets: Vec<Coord> = vec![0; fragments.len()];
        let mut convergence = Vec::with_capacity(self.iterations);

        let epe_before = self.verify(drawn, drawn);

        for _ in 0..self.iterations {
            let mask = apply_offsets(drawn, &fragments, &offsets);
            let printed = self.sim.printed(&mask, self.condition);
            let epes = self.fragment_epe(&fragments, &printed);
            let mut rms_acc = 0.0;
            for ((off, f), epe) in offsets.iter_mut().zip(&fragments).zip(&epes) {
                let _ = f;
                rms_acc += (*epe as f64) * (*epe as f64);
                let step = (-(*epe) as f64 * self.gain).round() as Coord;
                *off = (*off + step).clamp(-self.max_move, self.max_move);
            }
            convergence.push((rms_acc / epes.len().max(1) as f64).sqrt());
        }

        let mask = apply_offsets(drawn, &fragments, &offsets);
        let epe_after = self.verify(drawn, &mask);
        OpcResult {
            mask,
            epe_before,
            epe_after,
            convergence,
        }
    }

    /// Simulates `mask` and summarises EPE against the drawn target.
    pub fn verify(&self, drawn: &Region, mask: &Region) -> EpeSummary {
        let printed = self.sim.printed(mask, self.condition);
        let samples: Vec<EpeSample> = dfm_litho::metrics::edge_placement_errors(
            drawn,
            &printed,
            self.fragment_len,
            (self.max_move / 2).max(4),
        );
        summarize_epe(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Rect;

    fn engine() -> ModelOpc {
        ModelOpc::new(LithoSimulator::for_feature_size(90))
    }

    #[test]
    fn opc_improves_narrow_line_epe() {
        let drawn = Region::from_rect(Rect::new(0, 0, 1500, 90));
        let result = engine().correct(&drawn);
        assert!(
            result.epe_after.rms < result.epe_before.rms,
            "rms {} -> {}",
            result.epe_before.rms,
            result.epe_after.rms
        );
        assert_eq!(result.epe_after.missing, 0);
    }

    #[test]
    fn opc_mask_differs_from_drawn() {
        let drawn = Region::from_rect(Rect::new(0, 0, 1500, 90));
        let result = engine().correct(&drawn);
        assert_ne!(result.mask, drawn);
        // Correction grows a narrow line.
        assert!(result.mask.area() > drawn.area());
    }

    #[test]
    fn convergence_trace_decreases_overall() {
        let drawn = Region::from_rects([Rect::new(0, 0, 1500, 90), Rect::new(0, 270, 1500, 360)]);
        let result = engine().correct(&drawn);
        let first = result.convergence.first().copied().expect("has iterations");
        let last = result.convergence.last().copied().expect("has iterations");
        assert!(last <= first, "convergence {first} -> {last}");
    }

    #[test]
    fn opc_rescues_line_end_pullback() {
        let eng = engine();
        let drawn = Region::from_rect(Rect::new(0, 0, 800, 90));
        // Raw printing pulls the line ends back.
        let raw_printed = eng.sim.printed(&drawn, Condition::nominal());
        let raw_len = raw_printed.bbox().width();
        let result = eng.correct(&drawn);
        let opc_printed = eng.sim.printed(&result.mask, Condition::nominal());
        let opc_len = opc_printed.bbox().width();
        assert!(
            opc_len > raw_len,
            "OPC should extend printed line length: {raw_len} -> {opc_len}"
        );
    }

    #[test]
    fn correction_is_deterministic() {
        let drawn = Region::from_rect(Rect::new(0, 0, 900, 90));
        let a = engine().correct(&drawn);
        let b = engine().correct(&drawn);
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.convergence, b.convergence);
    }
}
