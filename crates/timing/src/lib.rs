//! # dfm-timing — variability-aware static timing analysis
//!
//! The timing substrate for experiment E7 (Yang, Capodieci & Sylvester's
//! "advanced timing analysis based on post-OPC extraction of critical
//! dimensions", DAC 2005): does feeding *as-printed* gate lengths into
//! STA change sign-off compared to corner-based analysis?
//!
//! * [`Netlist`] — a placed combinational DAG with deterministic random
//!   generation,
//! * [`DelayModel`] — gate delay with CD (gate-length) dependence, Elmore
//!   wire delay from placement distance, and exponential leakage,
//! * [`sta`] — topological arrival/required/slack analysis with critical
//!   path extraction,
//! * [`extract`] — gate-length vectors: drawn, guard-band corner,
//!   Monte-Carlo, and **post-litho extraction** (simulating the synthetic
//!   poly layer and measuring each gate's printed CD),
//! * [`spearman_rank_correlation`] — the path-reordering statistic.
//!
//! ```
//! use dfm_timing::{extract, sta, DelayModel, Netlist};
//!
//! let netlist = Netlist::random(6, 8, 42);
//! let model = DelayModel::default();
//! let lengths = extract::drawn(&netlist);
//! let result = sta::run(&netlist, &lengths, &model, 500.0);
//! assert!(result.worst_slack < 500.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_geom::Point;
use dfm_rand::Rng;

/// Index of a gate within a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GateId(pub usize);

/// Logic gate flavours.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Primary input (zero delay source).
    Input,
    /// Primary output (capture point).
    Output,
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// Buffer.
    Buf,
}

impl GateKind {
    /// Intrinsic delay multiplier relative to an inverter.
    fn intrinsic_factor(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Output => 0.0,
            GateKind::Inv => 1.0,
            GateKind::Buf => 1.8,
            GateKind::Nand2 => 1.4,
            GateKind::Nor2 => 1.6,
        }
    }
}

/// One placed gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// Gate flavour.
    pub kind: GateKind,
    /// Placement location (nm).
    pub location: Point,
    /// Drawn gate length (nm).
    pub drawn_l: i64,
    /// Drive strength multiplier (1.0 = unit drive); larger drive is
    /// faster into load but presents more input capacitance and leaks
    /// proportionally.
    pub drive: f64,
}

/// A placed combinational netlist (a DAG from inputs to outputs).
#[derive(Clone, Debug)]
pub struct Netlist {
    gates: Vec<Gate>,
    /// Fanin gate ids per gate.
    fanins: Vec<Vec<GateId>>,
    /// Fanout gate ids per gate (derived).
    fanouts: Vec<Vec<GateId>>,
}

impl Netlist {
    /// Generates a deterministic random netlist: `width` primary inputs,
    /// `levels` logic levels of random 1–2-input gates, `width` primary
    /// outputs. Gates are placed on a grid (one column per level) so wire
    /// lengths are physical.
    pub fn random(levels: usize, width: usize, seed: u64) -> Netlist {
        assert!(levels >= 1 && width >= 1, "need at least a 1x1 netlist");
        let mut rng = Rng::seed_from_u64(seed);
        let pitch_x: i64 = 2_000;
        let pitch_y: i64 = 1_200;
        let lnom: i64 = 60;

        let mut gates = Vec::new();
        let mut fanins: Vec<Vec<GateId>> = Vec::new();
        let mut prev_level: Vec<GateId> = Vec::new();

        for w in 0..width {
            gates.push(Gate {
                kind: GateKind::Input,
                location: Point::new(0, w as i64 * pitch_y),
                drawn_l: lnom,
                drive: 1.0,
            });
            fanins.push(Vec::new());
            prev_level.push(GateId(gates.len() - 1));
        }
        for level in 1..=levels {
            let mut this_level = Vec::new();
            for w in 0..width {
                let kind = match rng.range(0..4u32) {
                    0 => GateKind::Inv,
                    1 => GateKind::Nand2,
                    2 => GateKind::Nor2,
                    _ => GateKind::Buf,
                };
                let n_in = match kind {
                    GateKind::Nand2 | GateKind::Nor2 => 2,
                    _ => 1,
                };
                let mut ins = Vec::new();
                for _ in 0..n_in {
                    ins.push(prev_level[rng.range(0..prev_level.len())]);
                }
                gates.push(Gate {
                    kind,
                    location: Point::new(level as i64 * pitch_x, w as i64 * pitch_y),
                    drawn_l: lnom,
                    drive: 1.0,
                });
                fanins.push(ins);
                this_level.push(GateId(gates.len() - 1));
            }
            prev_level = this_level;
        }
        for w in 0..width {
            let src = prev_level[w % prev_level.len()];
            gates.push(Gate {
                kind: GateKind::Output,
                location: Point::new((levels as i64 + 1) * pitch_x, w as i64 * pitch_y),
                drawn_l: lnom,
                drive: 1.0,
            });
            fanins.push(vec![src]);
        }

        let mut fanouts: Vec<Vec<GateId>> = vec![Vec::new(); gates.len()];
        for (g, ins) in fanins.iter().enumerate() {
            for &i in ins {
                fanouts[i.0].push(GateId(g));
            }
        }
        Netlist {
            gates,
            fanins,
            fanouts,
        }
    }

    /// The gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including inputs/outputs).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True for an empty netlist.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Mutable access to one gate (for ECO passes).
    pub fn gate_mut(&mut self, g: GateId) -> &mut Gate {
        &mut self.gates[g.0]
    }

    /// Fanins of a gate.
    pub fn fanins(&self, g: GateId) -> &[GateId] {
        &self.fanins[g.0]
    }

    /// Fanouts of a gate.
    pub fn fanouts(&self, g: GateId) -> &[GateId] {
        &self.fanouts[g.0]
    }

    /// Ids of the primary outputs.
    pub fn outputs(&self) -> Vec<GateId> {
        (0..self.gates.len())
            .filter(|&i| self.gates[i].kind == GateKind::Output)
            .map(GateId)
            .collect()
    }

    /// A topological order (inputs first). The generator builds gates in
    /// level order, so identity order is valid; asserted in debug builds.
    pub fn topological_order(&self) -> Vec<GateId> {
        debug_assert!(self
            .fanins
            .iter()
            .enumerate()
            .all(|(g, ins)| ins.iter().all(|i| i.0 < g)));
        (0..self.gates.len()).map(GateId).collect()
    }
}

/// Electrical model: CD-dependent gate delay, Elmore wires, leakage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayModel {
    /// Inverter FO1 intrinsic delay at nominal L, in ps.
    pub d0_ps: f64,
    /// Delay per fF of load, ps/fF.
    pub load_ps_per_ff: f64,
    /// Gate input capacitance, fF.
    pub input_cap_ff: f64,
    /// Wire capacitance per nm, fF/nm.
    pub wire_cap_ff_per_nm: f64,
    /// Wire resistance per nm, Ω/nm.
    pub wire_res_ohm_per_nm: f64,
    /// Nominal drawn gate length, nm.
    pub lnom: f64,
    /// Delay ∝ (L/Lnom)^alpha.
    pub alpha: f64,
    /// Leakage per gate at nominal L, nA.
    pub leak0_na: f64,
    /// Leakage e-folding length, nm (leakage = leak0·exp((Lnom−L)/s)).
    pub leak_s_nm: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            d0_ps: 10.0,
            load_ps_per_ff: 6.0,
            input_cap_ff: 1.5,
            wire_cap_ff_per_nm: 0.0002,
            wire_res_ohm_per_nm: 0.02,
            lnom: 60.0,
            alpha: 1.3,
            leak0_na: 10.0,
            leak_s_nm: 12.0,
        }
    }
}

impl DelayModel {
    /// Delay of `gate` driving its fanout, given its effective gate
    /// length `l_nm` and total load capacitance `load_ff`, in ps.
    pub fn gate_delay(&self, kind: GateKind, l_nm: f64, load_ff: f64) -> f64 {
        self.gate_delay_driven(kind, l_nm, load_ff, 1.0)
    }

    /// Drive-aware delay: a gate of drive `k` drives external load `k`
    /// times harder but keeps its intrinsic delay.
    pub fn gate_delay_driven(&self, kind: GateKind, l_nm: f64, load_ff: f64, drive: f64) -> f64 {
        let f = kind.intrinsic_factor();
        if f == 0.0 {
            return 0.0;
        }
        let cd_factor = (l_nm / self.lnom).powf(self.alpha);
        f * cd_factor * (self.d0_ps + self.load_ps_per_ff * load_ff / drive.max(1e-6))
    }

    /// Elmore delay of a point-to-point wire of `len_nm`, terminated by
    /// `load_ff`, in ps (R·C/2 + R·C_load; fF·Ω = 10⁻³ ps).
    pub fn wire_delay(&self, len_nm: f64, load_ff: f64) -> f64 {
        let r = self.wire_res_ohm_per_nm * len_nm;
        let c = self.wire_cap_ff_per_nm * len_nm;
        (r * (c / 2.0 + load_ff)) * 1e-3
    }

    /// Leakage of one gate at effective length `l_nm`, in nA.
    pub fn gate_leakage(&self, kind: GateKind, l_nm: f64) -> f64 {
        if kind.intrinsic_factor() == 0.0 {
            return 0.0;
        }
        self.leak0_na * ((self.lnom - l_nm) / self.leak_s_nm).exp()
    }
}

/// Static timing analysis.
pub mod sta {
    use super::{DelayModel, GateId, Netlist};

    /// The result of one STA run.
    #[derive(Clone, Debug)]
    pub struct StaResult {
        /// Arrival time at each gate's output, ps.
        pub arrival: Vec<f64>,
        /// Slack at each primary output, ps (clock − arrival).
        pub output_slack: Vec<(GateId, f64)>,
        /// Worst (minimum) output slack, ps.
        pub worst_slack: f64,
        /// The critical path, inputs→output.
        pub critical_path: Vec<GateId>,
        /// Total leakage, nA.
        pub leakage_na: f64,
    }

    /// Runs STA with per-gate effective lengths `l_nm` (parallel to
    /// `netlist.gates()`), against `clock_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `l_nm.len() != netlist.len()`.
    pub fn run(netlist: &Netlist, l_nm: &[f64], model: &DelayModel, clock_ps: f64) -> StaResult {
        assert_eq!(l_nm.len(), netlist.len(), "one length per gate");
        let n = netlist.len();
        let mut arrival = vec![0.0f64; n];
        let mut from: Vec<Option<GateId>> = vec![None; n];
        let mut leakage = 0.0;

        for gid in netlist.topological_order() {
            let g = gid.0;
            let gate = netlist.gates()[g];
            leakage += gate.drive * model.gate_leakage(gate.kind, l_nm[g]);
            // Load on this gate: fanout input caps (scaled by fanout
            // drive) + fanout wire caps.
            let mut load = 0.0;
            for &o in netlist.fanouts(gid) {
                let sink = netlist.gates()[o.0];
                let dist = gate.location.manhattan_distance(sink.location) as f64;
                load += model.input_cap_ff * sink.drive + model.wire_cap_ff_per_nm * dist;
            }
            // Arrival at this gate's output = max over fanins of
            // (fanin arrival + wire to here) + own gate delay.
            let mut best = 0.0f64;
            for &i in netlist.fanins(gid) {
                let dist = netlist.gates()[i.0]
                    .location
                    .manhattan_distance(gate.location) as f64;
                let t = arrival[i.0] + model.wire_delay(dist, model.input_cap_ff);
                if t >= best {
                    best = t;
                    from[g] = Some(i);
                }
            }
            arrival[g] = best + model.gate_delay_driven(gate.kind, l_nm[g], load, gate.drive);
        }

        let mut output_slack: Vec<(GateId, f64)> = netlist
            .outputs()
            .into_iter()
            .map(|o| (o, clock_ps - arrival[o.0]))
            .collect();
        output_slack.sort_by(|a, b| a.1.total_cmp(&b.1));
        let worst_slack = output_slack.first().map(|&(_, s)| s).unwrap_or(clock_ps);

        // Trace the critical path back from the worst output.
        let mut critical_path = Vec::new();
        if let Some(&(worst_out, _)) = output_slack.first() {
            let mut cur = Some(worst_out);
            while let Some(g) = cur {
                critical_path.push(g);
                cur = from[g.0];
            }
            critical_path.reverse();
        }

        StaResult {
            arrival,
            output_slack,
            worst_slack,
            critical_path,
            leakage_na: leakage,
        }
    }

    /// Convenience: the slack vector ordered by output id (for rank
    /// comparisons between runs).
    pub fn slack_by_output(result: &StaResult) -> Vec<f64> {
        let mut v = result.output_slack.clone();
        v.sort_by_key(|&(o, _)| o);
        v.into_iter().map(|(_, s)| s).collect()
    }
}

/// Timing ECO: greedy gate upsizing on the critical path.
///
/// A classic post-route engineering-change-order loop: while the worst
/// slack improves, upsize the slowest logic gate on the critical path
/// (drive ×1.5, capped at ×4). Upsizing speeds the gate into its load
/// but raises its input capacitance (loading its drivers) and leakage —
/// the power/timing trade the panel's designer members lived in.
pub mod eco {
    use super::{sta, DelayModel, GateId, GateKind, Netlist};

    /// The record of one ECO run.
    #[derive(Clone, Debug)]
    pub struct EcoReport {
        /// Worst slack after each accepted upsize, starting with the
        /// baseline (length = accepted upsizes + 1).
        pub slack_trace: Vec<f64>,
        /// The gates upsized, in order.
        pub upsized: Vec<GateId>,
        /// Leakage before and after, nA.
        pub leakage_before_na: f64,
        /// Leakage after, nA.
        pub leakage_after_na: f64,
    }

    impl EcoReport {
        /// Total worst-slack improvement, ps.
        pub fn improvement_ps(&self) -> f64 {
            match (self.slack_trace.first(), self.slack_trace.last()) {
                (Some(a), Some(b)) => b - a,
                _ => 0.0,
            }
        }
    }

    /// Runs the greedy upsizing loop, mutating the netlist's drives.
    pub fn upsize(
        netlist: &mut Netlist,
        l_nm: &[f64],
        model: &DelayModel,
        clock_ps: f64,
        max_steps: usize,
    ) -> EcoReport {
        let baseline = sta::run(netlist, l_nm, model, clock_ps);
        let mut slack_trace = vec![baseline.worst_slack];
        let mut upsized = Vec::new();
        let leakage_before_na = baseline.leakage_na;
        let mut leakage_after_na = baseline.leakage_na;

        'steps: for _ in 0..max_steps {
            let result = sta::run(netlist, l_nm, model, clock_ps);
            // Candidates: logic gates on the critical path with sizing
            // headroom, most promising (largest stage delay) first. A
            // stage may be wire-dominated — upsizing would not help and
            // can hurt by loading the driver — so each candidate is
            // trial-evaluated and reverted unless the worst slack
            // actually improves.
            let mut candidates: Vec<(GateId, f64)> = result
                .critical_path
                .windows(2)
                .filter_map(|w| {
                    let g = w[1];
                    let gate = netlist.gates()[g.0];
                    if matches!(gate.kind, GateKind::Input | GateKind::Output) || gate.drive >= 4.0
                    {
                        return None;
                    }
                    Some((g, result.arrival[g.0] - result.arrival[w[0].0]))
                })
                .collect();
            candidates.sort_by(|a, b| b.1.total_cmp(&a.1));

            for (g, _) in candidates {
                let old_drive = netlist.gates()[g.0].drive;
                netlist.gate_mut(g).drive = (old_drive * 1.5).min(4.0);
                let trial = sta::run(netlist, l_nm, model, clock_ps);
                if trial.worst_slack > slack_trace.last().copied().unwrap_or(f64::MIN) + 1e-9 {
                    slack_trace.push(trial.worst_slack);
                    upsized.push(g);
                    leakage_after_na = trial.leakage_na;
                    continue 'steps;
                }
                netlist.gate_mut(g).drive = old_drive;
            }
            break; // no candidate improved the worst slack
        }
        EcoReport {
            slack_trace,
            upsized,
            leakage_before_na,
            leakage_after_na,
        }
    }
}

/// Gate-length extraction strategies.
pub mod extract {
    use super::{GateKind, Netlist};
    use dfm_geom::{Point, Rect, Region};
    use dfm_litho::{metrics, Condition, LithoSimulator};
    use dfm_rand::{Rng, Seed};

    /// Drawn (nominal) lengths.
    pub fn drawn(netlist: &Netlist) -> Vec<f64> {
        netlist.gates().iter().map(|g| g.drawn_l as f64).collect()
    }

    /// Guard-band corner: every gate at `(1 + margin)` times drawn
    /// (slow corner for positive margin).
    pub fn corner(netlist: &Netlist, margin: f64) -> Vec<f64> {
        netlist
            .gates()
            .iter()
            .map(|g| g.drawn_l as f64 * (1.0 + margin))
            .collect()
    }

    /// Independent Gaussian CD variation with relative sigma.
    ///
    /// Gates are drawn in fixed 64-gate chunks, each chunk on its own
    /// stream derived as `Seed(seed).derive(chunk)` — so the draw for
    /// every gate depends only on `seed` and the gate's position.
    pub fn monte_carlo(netlist: &Netlist, rel_sigma: f64, seed: u64) -> Vec<f64> {
        const GATE_CHUNK: usize = 64;
        netlist
            .gates()
            .chunks(GATE_CHUNK)
            .enumerate()
            .flat_map(|(ci, gates)| {
                let mut rng = Rng::from_seed(Seed(seed).derive(ci as u64));
                gates.iter().map(move |g| {
                    (g.drawn_l as f64 * (1.0 + rel_sigma * rng.standard_normal())).max(1.0)
                })
            })
            .collect()
    }

    /// Builds the synthetic poly layer of a netlist: one vertical poly
    /// gate stripe per logic gate at its placement, plus proximity dummy
    /// context derived from the gate's level parity (making some gates
    /// dense and some isolated — the source of systematic CD spread).
    pub fn poly_layer(netlist: &Netlist) -> Region {
        let mut rects = Vec::new();
        let height = 400i64;
        for (i, g) in netlist.gates().iter().enumerate() {
            if matches!(g.kind, GateKind::Input | GateKind::Output) {
                continue;
            }
            let c = g.location;
            let l = g.drawn_l;
            rects.push(Rect::new(c.x - l / 2, c.y, c.x + l / 2, c.y + height));
            // Alternate environments: even gates get dense neighbours at
            // a 2L pitch (close enough for optical coupling).
            if i % 2 == 0 {
                for k in [-2i64, -1, 1, 2] {
                    let nx = c.x + k * 2 * l;
                    rects.push(Rect::new(nx - l / 2, c.y, nx + l / 2, c.y + height));
                }
            }
        }
        Region::from_rects(rects)
    }

    /// Post-litho extraction: simulates the synthetic poly layer around
    /// each gate (a fine-pixel window per gate, so sub-nm CD bias is
    /// resolved) and measures the as-printed CD at mid-height. Gates
    /// whose image vanished are floored at 40% of drawn (a broken, fast
    /// and leaky device).
    pub fn post_litho(netlist: &Netlist, sim: &LithoSimulator, cond: Condition) -> Vec<f64> {
        let poly = poly_layer(netlist);
        // Per-gate fine simulation: override the pixel to 2 nm so CD
        // bias of a few nm survives quantisation. Each gate's window is
        // simulated independently, so the per-gate map runs in parallel
        // (`DFM_THREADS`) with results in gate order.
        let fine = LithoSimulator {
            pixel_nm: 2,
            ..sim.clone()
        };
        dfm_par::par_map(netlist.gates(), |_, g| {
            if matches!(g.kind, GateKind::Input | GateKind::Output) {
                return g.drawn_l as f64;
            }
            let probe = Point::new(g.location.x, g.location.y + 200);
            let window = Rect::centered_at(probe, 12 * g.drawn_l, 6 * g.drawn_l);
            let printed = fine.printed_in_window(&poly, window, cond);
            match metrics::cd_horizontal(&printed, probe) {
                Some(cd) => cd as f64,
                None => g.drawn_l as f64 * 0.4,
            }
        })
    }
}

/// Spearman rank correlation between two equally-long samples
/// (1 = same ordering, −1 = reversed). Ties broken by index.
pub fn spearman_rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]).then(i.cmp(&j)));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let ra = rank(a);
    let rb = rank(b);
    let d2: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
    1.0 - 6.0 * d2 / (n as f64 * ((n * n - 1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_generation_is_deterministic_dag() {
        let a = Netlist::random(5, 6, 3);
        let b = Netlist::random(5, 6, 3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 6 + 5 * 6 + 6);
        // DAG property: all fanins precede.
        for (g, _) in a.gates().iter().enumerate() {
            for &i in a.fanins(GateId(g)) {
                assert!(i.0 < g);
            }
        }
        assert_eq!(a.outputs().len(), 6);
    }

    #[test]
    fn sta_produces_positive_arrivals_and_path() {
        let n = Netlist::random(6, 8, 42);
        let model = DelayModel::default();
        let r = sta::run(&n, &extract::drawn(&n), &model, 500.0);
        assert!(r.worst_slack < 500.0);
        assert!(r.critical_path.len() >= 3);
        // Path starts at an input, ends at an output.
        assert_eq!(n.gates()[r.critical_path[0].0].kind, GateKind::Input);
        assert_eq!(
            n.gates()[r.critical_path.last().expect("non-empty").0].kind,
            GateKind::Output
        );
        // Arrivals are monotone along the critical path.
        for w in r.critical_path.windows(2) {
            assert!(r.arrival[w[0].0] <= r.arrival[w[1].0]);
        }
    }

    #[test]
    fn longer_gates_are_slower_and_less_leaky() {
        let n = Netlist::random(5, 6, 7);
        let model = DelayModel::default();
        let nominal = sta::run(&n, &extract::drawn(&n), &model, 1000.0);
        let slow = sta::run(&n, &extract::corner(&n, 0.10), &model, 1000.0);
        let fast = sta::run(&n, &extract::corner(&n, -0.10), &model, 1000.0);
        assert!(slow.worst_slack < nominal.worst_slack);
        assert!(fast.worst_slack > nominal.worst_slack);
        assert!(slow.leakage_na < nominal.leakage_na);
        assert!(fast.leakage_na > nominal.leakage_na);
    }

    #[test]
    fn monte_carlo_varies_but_is_seeded() {
        let n = Netlist::random(4, 5, 1);
        let a = extract::monte_carlo(&n, 0.05, 9);
        let b = extract::monte_carlo(&n, 0.05, 9);
        let c = extract::monte_carlo(&n, 0.05, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let drawn = extract::drawn(&n);
        assert!(a.iter().zip(&drawn).any(|(x, y)| (x - y).abs() > 0.1));
    }

    #[test]
    fn post_litho_extraction_differs_from_drawn() {
        let n = Netlist::random(4, 4, 11);
        // σ₀ ≈ 34 nm puts 60 nm gates near the printability cliff, the
        // regime where post-OPC extraction matters (Yang et al. 2005).
        let sim = dfm_litho::LithoSimulator::for_feature_size(75);
        let lengths = extract::post_litho(&n, &sim, dfm_litho::Condition::nominal());
        let drawn = extract::drawn(&n);
        assert_eq!(lengths.len(), drawn.len());
        // Litho bias shifts at least some gates.
        assert!(lengths
            .iter()
            .zip(&drawn)
            .any(|(a, b)| (a - b).abs() >= 1.0));
        // All lengths physical.
        assert!(lengths.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn post_litho_is_bit_identical_at_any_thread_count() {
        // The per-gate map is a kept fork region: at top level it fans
        // out, so its output must not depend on the worker count.
        let n = Netlist::random(4, 4, 11);
        let sim = dfm_litho::LithoSimulator::for_feature_size(75);
        let run = || extract::post_litho(&n, &sim, dfm_litho::Condition::nominal());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        let seq = bits(dfm_par::with_threads(1, run));
        assert_eq!(seq.len(), n.len());
        for threads in [2, 8] {
            assert_eq!(
                bits(dfm_par::with_threads(threads, run)),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn dense_and_iso_gates_print_differently() {
        let n = Netlist::random(4, 6, 13);
        let sim = dfm_litho::LithoSimulator::for_feature_size(75);
        let lengths = extract::post_litho(&n, &sim, dfm_litho::Condition::nominal());
        // Even-indexed logic gates have dense context, odd are isolated:
        // their systematic CDs must differ on average.
        let mut dense = Vec::new();
        let mut iso = Vec::new();
        for (i, g) in n.gates().iter().enumerate() {
            if matches!(g.kind, GateKind::Input | GateKind::Output) {
                continue;
            }
            if i % 2 == 0 {
                dense.push(lengths[i]);
            } else {
                iso.push(lengths[i]);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            (mean(&dense) - mean(&iso)).abs() > 0.5,
            "dense {} vs iso {}",
            mean(&dense),
            mean(&iso)
        );
    }

    #[test]
    fn eco_upsizing_improves_worst_slack() {
        let mut n = Netlist::random(10, 8, 17);
        let model = DelayModel::default();
        let lengths = extract::drawn(&n);
        let report = eco::upsize(&mut n, &lengths, &model, 500.0, 12);
        assert!(
            report.improvement_ps() > 0.0,
            "ECO gained nothing: {:?}",
            report.slack_trace
        );
        assert!(!report.upsized.is_empty());
        // Slack trace is strictly improving.
        for w in report.slack_trace.windows(2) {
            assert!(w[1] > w[0]);
        }
        // The speed came at a leakage price.
        assert!(report.leakage_after_na > report.leakage_before_na);
    }

    #[test]
    fn eco_respects_drive_cap() {
        let mut n = Netlist::random(6, 4, 23);
        let model = DelayModel::default();
        let lengths = extract::drawn(&n);
        let _ = eco::upsize(&mut n, &lengths, &model, 500.0, 100);
        assert!(n.gates().iter().all(|g| g.drive <= 4.0 + 1e-9));
    }

    #[test]
    fn drive_speeds_gate_into_load() {
        let m = DelayModel::default();
        let slow = m.gate_delay_driven(GateKind::Inv, 60.0, 10.0, 1.0);
        let fast = m.gate_delay_driven(GateKind::Inv, 60.0, 10.0, 2.0);
        assert!(fast < slow);
    }

    #[test]
    fn spearman_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman_rank_correlation(&a, &a) - 1.0).abs() < 1e-12);
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman_rank_correlation(&a, &rev) + 1.0).abs() < 1e-12);
        let other = [1.0, 3.0, 2.0, 4.0];
        let rho = spearman_rank_correlation(&a, &other);
        assert!(rho > 0.0 && rho < 1.0);
    }

    #[test]
    fn delay_model_units_sane() {
        let m = DelayModel::default();
        // FO1 inverter delay near d0 + load term.
        let d = m.gate_delay(GateKind::Inv, 60.0, 1.5);
        assert!((15.0..25.0).contains(&d), "delay {d}");
        // A 100 µm wire has non-trivial but bounded delay.
        let w = m.wire_delay(100_000.0, 1.5);
        assert!(w > 1.0 && w < 100.0, "wire delay {w}");
    }
}
